// Package rapidgen generates random, well-typed RAPID programs for
// differential conformance testing. The generator is seedable and
// deterministic: the same seed always yields the same program sequence.
//
// Every emitted program is valid by construction — it parses, passes
// semantic analysis, and compiles through the full codegen pipeline. The
// generator guarantees this by tracking, while it emits source text, the
// same compile-time facts the compiler will later rely on:
//
//   - the concrete value of every static variable it may read, so static
//     expressions never divide by zero or index out of range;
//   - whether at least one input symbol has been consumed on every path,
//     so reports and counter operations never fire "before any input";
//   - which predicate shapes survive eval.Normalize under negation, so
//     if/while conditions stay negatable (fixed-length conjunctions,
//     single-symbol disjunctions);
//   - counter liveness: a checked counter always has a count site in
//     compiled code (dedicated counting whenever at network level, or a
//     mandatory count in the macro that receives the counter).
//
// Variables whose compile-time value differs across elaborations (loop
// variables, macro parameters) are marked "varying" and only used where
// any value is safe (runtime matches, counter thresholds, branch-neutral
// static conditions).
package rapidgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/lang/value"
)

// Config bounds the size and shape of generated programs.
type Config struct {
	MaxMacros     int // macro declarations per program
	MaxDepth      int // statement nesting depth
	MaxBlockStmts int // statements per block
	MaxCounters   int // network-level counters
	MaxWhenevers  int // whenever statements per program
	StmtBudget    int // total statement budget per program
}

// DefaultConfig returns the budget used when none is supplied.
func DefaultConfig() Config {
	return Config{
		MaxMacros:     3,
		MaxDepth:      3,
		MaxBlockStmts: 3,
		MaxCounters:   2,
		MaxWhenevers:  3,
		StmtBudget:    32,
	}
}

// Program is one generated, validated RAPID program.
type Program struct {
	// Seed is the per-program seed (derived from the generator seed and
	// the program index); Generator.Replay(seed) regenerates it.
	Seed int64
	// Source is the program text.
	Source string
	// Args are the network arguments the program was validated against.
	Args []value.Value
	// Coverage marks which constructs this program exercises (see
	// StmtKinds for the statement-kind keys).
	Coverage map[string]bool
	// Alphabet lists the distinct data symbols the program's patterns
	// reference, for input generation.
	Alphabet []byte
}

// StmtKinds are the coverage keys for every RAPID statement kind; a
// generator run is construct-complete when the union of per-program
// coverage contains all of them.
var StmtKinds = []string{
	"stmt/block",
	"stmt/var-decl",
	"stmt/assign",
	"stmt/assert",
	"stmt/if-static",
	"stmt/if-runtime",
	"stmt/while-static",
	"stmt/while-runtime",
	"stmt/foreach",
	"stmt/either",
	"stmt/some",
	"stmt/whenever",
	"stmt/report",
	"stmt/empty",
	"stmt/macro-call",
}

// Generator produces a deterministic stream of programs.
type Generator struct {
	seed int64
	rng  *rand.Rand
	cfg  Config

	// Rejects counts candidate programs that failed validation and were
	// regenerated. A healthy generator keeps this at zero; the unit tests
	// assert it.
	Rejects    int
	LastReject error
}

// New returns a generator with the default configuration.
func New(seed int64) *Generator { return NewWithConfig(seed, DefaultConfig()) }

// NewWithConfig returns a generator with explicit budgets.
func NewWithConfig(seed int64, cfg Config) *Generator {
	d := DefaultConfig()
	if cfg.MaxMacros == 0 {
		cfg.MaxMacros = d.MaxMacros
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = d.MaxDepth
	}
	if cfg.MaxBlockStmts == 0 {
		cfg.MaxBlockStmts = d.MaxBlockStmts
	}
	if cfg.MaxCounters == 0 {
		cfg.MaxCounters = d.MaxCounters
	}
	if cfg.MaxWhenevers == 0 {
		cfg.MaxWhenevers = d.MaxWhenevers
	}
	if cfg.StmtBudget == 0 {
		cfg.StmtBudget = d.StmtBudget
	}
	return &Generator{seed: seed, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Program generates the next program in the sequence.
func (g *Generator) Program() *Program {
	for attempt := 0; ; attempt++ {
		if attempt > 100 {
			panic(fmt.Sprintf("rapidgen: 100 consecutive invalid programs; last error: %v", g.LastReject))
		}
		seed := g.rng.Int63()
		p, err := g.build(seed)
		if err != nil {
			g.Rejects++
			g.LastReject = err
			continue
		}
		return p
	}
}

// Replay regenerates the single program with the given per-program seed
// (as recorded in Program.Seed).
func (g *Generator) Replay(seed int64) (*Program, error) {
	return g.build(seed)
}

// build emits one candidate and validates it through parse, semantic
// analysis and compilation.
func (g *Generator) build(seed int64) (*Program, error) {
	pg := &progGen{
		rng:   rand.New(rand.NewSource(seed)),
		cfg:   g.cfg,
		cover: make(map[string]bool),
		alpha: make(map[byte]bool),
	}
	src, args := pg.program()
	prog, err := core.Load(src)
	if err != nil {
		return nil, fmt.Errorf("generated program rejected: %w\n%s", err, src)
	}
	if _, err := prog.Compile(args, nil); err != nil {
		return nil, fmt.Errorf("generated program does not compile: %w\n%s", err, src)
	}
	var alphabet []byte
	for b := 0; b < 256; b++ {
		if pg.alpha[byte(b)] {
			alphabet = append(alphabet, byte(b))
		}
	}
	return &Program{
		Seed:     seed,
		Source:   src,
		Args:     args,
		Coverage: pg.cover,
		Alphabet: alphabet,
	}, nil
}

// ---------------------------------------------------------------- emitter

type bKind int

const (
	bChar bKind = iota
	bInt
	bBool
	bString
	bCounter
	bStringArr
	bIntArr
)

// binding is one tracked name. val is nil for "varying" bindings, whose
// compile-time value differs across elaborations of the site that reads
// them (loop variables, macro parameters).
type binding struct {
	name   string
	kind   bKind
	val    value.Value
	minLen int // for varying strings: guaranteed minimum length
}

// scope is an ordered (deterministic) lexical scope chain. Generated
// names are globally unique, so shadowing never occurs.
type scope struct {
	parent *scope
	binds  []*binding
}

func newScope(parent *scope) *scope { return &scope{parent: parent} }

// clone deep-copies the chain: value updates in the copy are invisible to
// the original, matching the compiler's forked environments for parallel
// elaborations.
func (s *scope) clone() *scope {
	if s == nil {
		return nil
	}
	c := &scope{parent: s.parent.clone(), binds: make([]*binding, len(s.binds))}
	for i, b := range s.binds {
		cp := *b
		c.binds[i] = &cp
	}
	return c
}

func (s *scope) declare(b *binding) { s.binds = append(s.binds, b) }

// lookup walks inner to outer.
func (s *scope) lookup(name string) *binding {
	for sc := s; sc != nil; sc = sc.parent {
		for _, b := range sc.binds {
			if b.name == name {
				return b
			}
		}
	}
	return nil
}

// collect returns all bindings matching pred, outermost first, optionally
// stopping at floor (exclusive): bindings at or above floor are skipped.
func (s *scope) collect(floor *scope, pred func(*binding) bool) []*binding {
	var out []*binding
	for sc := s; sc != nil && sc != floor; sc = sc.parent {
		for _, b := range sc.binds {
			if pred(b) {
				out = append(out, b)
			}
		}
	}
	return out
}

// stCtx is the statement-generation context.
type stCtx struct {
	sc       *scope
	depth    int
	consumed bool // ≥1 input symbol consumed on every path reaching here
	countOK  bool // count() sites here are compiled (statically live)
	dead     bool // statically untaken: code typechecks but never compiles
	noShared bool // next statement sits at network top level: bare
	// declarations/assignments there execute into the shared environment
	// in source order rather than becoming parallel matchers
	floor   *scope // assignment floor: only vars below it are assignable (nil = all)
	inMacro bool
}

type macroSig struct {
	name   string
	params []*binding // kinds bChar, bInt, bString, bCounter
}

type progGen struct {
	rng   *rand.Rand
	cfg   Config
	cover map[string]bool
	alpha map[byte]bool

	pool      []byte // per-program character pool
	macros    []*macroSig
	usedMacro map[string]bool
	counters  []string // network-level counter names

	nameSeq   int
	budget    int
	reports   int
	whenevers int
}

func (p *progGen) name(prefix string) string {
	p.nameSeq++
	return fmt.Sprintf("%s%d", prefix, p.nameSeq)
}

func (p *progGen) pick(n int) int { return p.rng.Intn(n) }

func (p *progGen) chance(percent int) bool { return p.rng.Intn(100) < percent }

// weighted picks an index by weight.
func (p *progGen) weighted(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := p.rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

func (p *progGen) pickChar() byte {
	b := p.pool[p.pick(len(p.pool))]
	p.alpha[b] = true
	return b
}

func (p *progGen) randString(minLen, maxLen int) string {
	n := minLen + p.pick(maxLen-minLen+1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(p.pickChar())
	}
	return sb.String()
}

func charLit(b byte) string {
	switch b {
	case '\'':
		return `'\''`
	case '\\':
		return `'\\'`
	default:
		return "'" + string(b) + "'"
	}
}

// program emits the whole compilation unit and its network arguments.
func (p *progGen) program() (string, []value.Value) {
	p.budget = p.cfg.StmtBudget
	p.usedMacro = make(map[string]bool)

	// Per-program character pool: a small set so generated patterns and
	// inputs actually collide.
	full := []byte("abcdefgh")
	p.rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
	p.pool = full[:3+p.pick(3)]

	// Decide network-level counters first: macros may only take Counter
	// parameters when the network will have a counter to pass.
	nCounters := p.weighted([]int{40, 40, 20})
	if nCounters > p.cfg.MaxCounters {
		nCounters = p.cfg.MaxCounters
	}
	for i := 0; i < nCounters; i++ {
		p.counters = append(p.counters, p.name("c"))
	}

	var sb strings.Builder

	// Macros.
	nMacros := p.pick(p.cfg.MaxMacros + 1)
	for i := 0; i < nMacros; i++ {
		sb.WriteString(p.macroDecl(nCounters > 0))
		sb.WriteString("\n")
	}

	// Network parameters and matching arguments (JSON-representable
	// kinds only, so conformance corpora can serialize them).
	top := newScope(nil)
	var params []string
	var args []value.Value
	for i, n := 0, p.pick(4); i < n; i++ {
		name := p.name("p")
		switch p.weighted([]int{4, 2, 1, 2, 1}) {
		case 0:
			s := p.randString(1, 5)
			params = append(params, "String "+name)
			args = append(args, value.Str(s))
			top.declare(&binding{name: name, kind: bString, val: value.Str(s)})
		case 1:
			v := int64(p.pick(7))
			params = append(params, "int "+name)
			args = append(args, value.Int(v))
			top.declare(&binding{name: name, kind: bInt, val: value.Int(v)})
		case 2:
			v := p.chance(50)
			params = append(params, "bool "+name)
			args = append(args, value.Bool(v))
			top.declare(&binding{name: name, kind: bBool, val: value.Bool(v)})
		case 3:
			n := 1 + p.pick(3)
			arr := make(value.Array, n)
			for j := range arr {
				arr[j] = value.Str(p.randString(1, 4))
			}
			params = append(params, "String[] "+name)
			args = append(args, arr)
			top.declare(&binding{name: name, kind: bStringArr, val: arr})
		default:
			n := 1 + p.pick(3)
			arr := make(value.Array, n)
			for j := range arr {
				arr[j] = value.Int(int64(p.pick(6)))
			}
			params = append(params, "int[] "+name)
			args = append(args, arr)
			top.declare(&binding{name: name, kind: bIntArr, val: arr})
		}
	}

	sb.WriteString("network (" + strings.Join(params, ", ") + ") {\n")

	// Leading declarations execute in order into the shared environment.
	for i, n := 0, p.pick(3); i < n; i++ {
		sb.WriteString(p.varDecl(top, "  "))
	}

	// Counter declarations plus a dedicated, always-live counting
	// whenever per counter, so every check downstream has a compiled
	// count source.
	for _, cn := range p.counters {
		sb.WriteString("  Counter " + cn + ";\n")
		top.declare(&binding{name: cn, kind: bCounter})
	}
	for _, cn := range p.counters {
		ch := p.pickChar()
		body := "{ " + cn + ".count(); }"
		if p.chance(25) {
			body = "{ " + cn + ".count(); report; }"
			p.reports++
			p.cover["stmt/report"] = true
		}
		sb.WriteString("  whenever (input() == " + charLit(ch) + ") " + body + "\n")
		p.whenevers++
		p.cover["stmt/whenever"] = true
		p.cover["counter/count"] = true
		if p.chance(30) {
			sb.WriteString("  whenever (input() == " + charLit(p.pickChar()) + ") { " + cn + ".reset(); }\n")
			p.whenevers++
			p.cover["counter/reset"] = true
		}
	}

	// Parallel statements: each is an independent matcher anchored at the
	// stream start, so each starts with nothing consumed. Compile-time
	// mutations inside one parallel statement are invisible to siblings.
	nPar := 1 + p.pick(3)
	for i := 0; i < nPar; i++ {
		c := stCtx{sc: newScope(top.clone()), depth: 0, consumed: false, countOK: true, noShared: true}
		text, _ := p.stmt(c, "  ")
		sb.WriteString(text)
	}

	// Force a call to any macro the body didn't reach, so every macro
	// elaborates (and its counter counts stay live).
	for _, m := range p.macros {
		if !p.usedMacro[m.name] {
			c := stCtx{sc: newScope(top.clone()), depth: 0, consumed: false, countOK: true}
			sb.WriteString("  " + p.macroCallText(c, m) + ";\n")
			p.cover["stmt/macro-call"] = true
		}
	}

	// Every program reports somewhere.
	if p.reports == 0 {
		ch := p.pickChar()
		sb.WriteString("  { input() == " + charLit(ch) + "; report; }\n")
		p.reports++
		p.cover["stmt/block"] = true
		p.cover["stmt/assert"] = true
		p.cover["stmt/report"] = true
	}

	sb.WriteString("}\n")
	return sb.String(), args
}

// macroDecl emits one macro. Every macro consumes at least one symbol
// before anything else, so call sites may sit at the stream start and
// still report or count inside the macro.
func (p *progGen) macroDecl(countersExist bool) string {
	m := &macroSig{name: p.name("m")}
	sc := newScope(nil)
	var params []string
	hasCounter := false
	for i, n := 0, p.pick(3); i < n; i++ {
		name := p.name("q")
		kinds := []int{3, 2, 3}
		if countersExist && !hasCounter {
			kinds = append(kinds, 2)
		}
		var b *binding
		switch p.weighted(kinds) {
		case 0:
			params = append(params, "char "+name)
			b = &binding{name: name, kind: bChar}
		case 1:
			params = append(params, "int "+name)
			b = &binding{name: name, kind: bInt}
		case 2:
			params = append(params, "String "+name)
			b = &binding{name: name, kind: bString, minLen: 1}
		default:
			params = append(params, "Counter "+name)
			b = &binding{name: name, kind: bCounter}
			hasCounter = true
		}
		sc.declare(b)
		m.params = append(m.params, b)
	}

	var sb strings.Builder
	sb.WriteString("macro " + m.name + "(" + strings.Join(params, ", ") + ") {\n")

	// Mandatory consuming assertion, then (if a counter came in) a
	// mandatory count so any check of that counter inside this macro has
	// a count compiled alongside it.
	c := stCtx{sc: newScope(sc), depth: 1, consumed: false, countOK: true, inMacro: true}
	pred, _ := p.pred(predCtx{sc: c.sc, negatable: false, noCounters: true}, true)
	sb.WriteString("  " + pred + ";\n")
	c.consumed = true
	p.cover["stmt/assert"] = true
	if hasCounter {
		// The lead assertion's frontier is a plain STE (its predicate is
		// counter-free), so counting here never forms a gate→counter
		// combinational cycle.
		for _, b := range m.params {
			if b.kind == bCounter {
				sb.WriteString("  " + b.name + ".count();\n")
				p.cover["counter/count"] = true
				if p.chance(20) {
					sb.WriteString("  " + b.name + ".reset();\n")
					p.cover["counter/reset"] = true
				}
			}
		}
	}
	for i, n := 0, p.pick(p.cfg.MaxBlockStmts+1); i < n; i++ {
		text, consumed := p.stmt(c, "  ")
		sb.WriteString(text)
		c.consumed = c.consumed || consumed
	}
	if p.chance(60) {
		sb.WriteString("  report;\n")
		p.reports++
		p.cover["stmt/report"] = true
	}
	sb.WriteString("}\n")

	// Register only after emission: a macro may call previously declared
	// macros but never itself (no recursion).
	p.macros = append(p.macros, m)
	return sb.String()
}

// callableMacros returns macros whose parameter kinds are satisfiable in
// the current scope (Counter params need a counter in scope).
func (p *progGen) callableMacros(c stCtx) []*macroSig {
	var out []*macroSig
	for _, m := range p.macros {
		ok := true
		for _, q := range m.params {
			if q.kind == bCounter && len(p.countersIn(c.sc)) == 0 {
				ok = false
			}
		}
		if ok {
			out = append(out, m)
		}
	}
	return out
}

func (p *progGen) countersIn(sc *scope) []*binding {
	return sc.collect(nil, func(b *binding) bool { return b.kind == bCounter })
}

func (p *progGen) macroCallText(c stCtx, m *macroSig) string {
	var args []string
	for _, q := range m.params {
		switch q.kind {
		case bChar:
			args = append(args, p.staticCharText(c.sc))
		case bInt:
			t, _ := p.staticInt(c.sc, 0)
			args = append(args, t)
		case bString:
			t, _ := p.staticString(c.sc, 1)
			args = append(args, t)
		case bCounter:
			cs := p.countersIn(c.sc)
			args = append(args, cs[p.pick(len(cs))].name)
		}
	}
	if !c.dead {
		// A call inside statically-untaken code never elaborates; only a
		// live call keeps the macro's reports and counts compiled.
		p.usedMacro[m.name] = true
	}
	return m.name + "(" + strings.Join(args, ", ") + ")"
}

// ---------------------------------------------------------------- stmts

// stmt emits one statement (indented, newline-terminated) and reports
// whether it consumes at least one symbol on every completing path.
func (p *progGen) stmt(c stCtx, ind string) (string, bool) {
	p.budget--
	atLeaf := c.depth >= p.cfg.MaxDepth || p.budget <= 0
	noShared := c.noShared
	c.noShared = false // only the immediate statement is restricted

	type choice struct {
		w int
		f func() (string, bool)
	}
	var choices []choice
	add := func(w int, f func() (string, bool)) { choices = append(choices, choice{w, f}) }

	// --- leaf statements ---
	add(5, func() (string, bool) { return p.assertStmt(c, ind) })
	if c.consumed {
		add(3, func() (string, bool) {
			if !c.dead {
				p.reports++
			}
			p.cover["stmt/report"] = true
			return ind + "report;\n", false
		})
	}
	// Counter count()/reset() sites are NOT free-form statements: a count
	// or reset driven by a frontier that contains a threshold gate of the
	// same counter forms a combinational cycle the automata validator
	// rejects. Counts and resets therefore only appear in the dedicated
	// counting whenevers (guarded by a plain character match) and right
	// after a macro's counter-free lead assertion, where the frontier is
	// always a clean STE.
	if !noShared {
		add(2, func() (string, bool) { return p.varDecl(c.sc, ind), false })
		if vars := c.sc.collect(c.floor, func(b *binding) bool {
			return b.val != nil && (b.kind == bInt || b.kind == bBool || b.kind == bString || b.kind == bChar)
		}); len(vars) > 0 {
			add(2, func() (string, bool) { return p.assignStmt(c, vars, ind), false })
		}
	}
	if ms := p.callableMacros(c); len(ms) > 0 {
		add(3, func() (string, bool) {
			m := ms[p.pick(len(ms))]
			p.cover["stmt/macro-call"] = true
			if c.inMacro {
				p.cover["macro/nested-call"] = true
			}
			return ind + p.macroCallText(c, m) + ";\n", true
		})
	}
	if !noShared {
		add(1, func() (string, bool) {
			p.cover["stmt/empty"] = true
			return ind + ";\n", false
		})
	}

	// --- compound statements ---
	if !atLeaf {
		add(2, func() (string, bool) { return p.ifStatic(c, ind) })
		add(3, func() (string, bool) { return p.ifRuntime(c, ind) })
		add(2, func() (string, bool) { return p.whileStatic(c, ind) })
		add(2, func() (string, bool) { return p.whileRuntime(c, ind) })
		add(3, func() (string, bool) { return p.foreachStmt(c, ind, false) })
		add(2, func() (string, bool) { return p.foreachStmt(c, ind, true) })
		add(3, func() (string, bool) { return p.eitherStmt(c, ind) })
		if p.whenevers < p.cfg.MaxWhenevers {
			add(2, func() (string, bool) { return p.wheneverStmt(c, ind) })
		}
		add(1, func() (string, bool) {
			p.cover["stmt/block"] = true
			c2 := c
			c2.depth++
			c2.sc = newScope(c.sc)
			body, consumed := p.block(c2, ind)
			return ind + "{\n" + body + ind + "}\n", consumed
		})
	}

	weights := make([]int, len(choices))
	for i, ch := range choices {
		weights[i] = ch.w
	}
	return choices[p.weighted(weights)].f()
}

// block emits 1..MaxBlockStmts statements into an (already created)
// scope, threading consumption.
func (p *progGen) block(c stCtx, ind string) (string, bool) {
	var sb strings.Builder
	n := 1 + p.pick(p.cfg.MaxBlockStmts)
	for i := 0; i < n; i++ {
		text, consumed := p.stmt(c, ind+"  ")
		sb.WriteString(text)
		c.consumed = c.consumed || consumed
	}
	return sb.String(), c.consumed
}

// blockIn wraps block in braces with a fresh child scope.
func (p *progGen) blockIn(c stCtx, ind string) (string, bool) {
	c.sc = newScope(c.sc)
	c.depth++
	body, consumed := p.block(c, ind)
	return "{\n" + body + ind + "}", consumed
}

func (p *progGen) assertStmt(c stCtx, ind string) (string, bool) {
	pred, min := p.pred(predCtx{sc: c.sc, negatable: false, counterOK: c.consumed}, !c.consumed)
	p.cover["stmt/assert"] = true
	return ind + pred + ";\n", min >= 1
}

// varDecl declares a fresh static variable with a tracked value.
func (p *progGen) varDecl(sc *scope, ind string) string {
	p.cover["stmt/var-decl"] = true
	name := p.name("v")
	switch p.pick(4) {
	case 0:
		if p.chance(15) { // zero-value declaration
			sc.declare(&binding{name: name, kind: bInt, val: value.Int(0)})
			return ind + "int " + name + ";\n"
		}
		t, v := p.staticInt(sc, 0)
		sc.declare(&binding{name: name, kind: bInt, val: value.Int(v)})
		return ind + "int " + name + " = " + t + ";\n"
	case 1:
		t, v := p.staticBool(sc, 0)
		sc.declare(&binding{name: name, kind: bBool, val: value.Bool(v)})
		return ind + "bool " + name + " = " + t + ";\n"
	case 2:
		t, v := p.staticCharKnown(sc)
		sc.declare(&binding{name: name, kind: bChar, val: value.Char(v)})
		return ind + "char " + name + " = " + t + ";\n"
	default:
		t, v := p.staticString(sc, 1)
		sc.declare(&binding{name: name, kind: bString, val: value.Str(v), minLen: len(v)})
		return ind + "String " + name + " = " + t + ";\n"
	}
}

func (p *progGen) assignStmt(c stCtx, vars []*binding, ind string) string {
	p.cover["stmt/assign"] = true
	b := vars[p.pick(len(vars))]
	switch b.kind {
	case bInt:
		t, v := p.staticInt(c.sc, 0)
		b.val = value.Int(v)
		return ind + b.name + " = " + t + ";\n"
	case bBool:
		t, v := p.staticBool(c.sc, 0)
		b.val = value.Bool(v)
		return ind + b.name + " = " + t + ";\n"
	case bChar:
		t, v := p.staticCharKnown(c.sc)
		b.val = value.Char(v)
		return ind + b.name + " = " + t + ";\n"
	default:
		t, v := p.staticString(c.sc, 1)
		b.val = value.Str(v)
		b.minLen = len(v)
		return ind + b.name + " = " + t + ";\n"
	}
}

// ifStatic emits an if whose condition the generator knows the value of.
// The untaken branch still typechecks but never compiles, so counter
// counts inside any branch are not statically guaranteed live.
func (p *progGen) ifStatic(c stCtx, ind string) (string, bool) {
	p.cover["stmt/if-static"] = true

	// Occasionally stage on a varying variable instead (paper-style
	// staged dispatch): the branch taken differs per elaboration, so both
	// branches must leave outer compile-time state untouched.
	if vb := p.varyingCond(c.sc); vb != "" && p.chance(35) {
		cT := c
		cT.sc = c.sc.clone()
		cT.countOK = false
		cT.dead = true   // which branch compiles varies per elaboration
		cT.floor = cT.sc // branch-neutral: locals only
		cT.depth++
		thenB, thenC := p.blockIn(cT, ind)
		cE := c
		cE.sc = c.sc.clone()
		cE.countOK = false
		cE.dead = true
		cE.floor = cE.sc
		cE.depth++
		elseB, elseC := p.blockIn(cE, ind)
		// Consumption must hold on every path; with the branch unknown,
		// require both.
		return ind + "if (" + vb + ") " + thenB + " else " + elseB + "\n", thenC && elseC
	}

	cond, condVal := p.staticBool(c.sc, 0)
	// The taken branch elaborates against the live scope (its
	// assignments persist past the if); the untaken branch merely
	// typechecks — it is never compiled, so its compile-time effects and
	// counter counts must not be relied on. An if without else is decided
	// first: a taken else it drops must not have marked macros used or
	// assigned variables.
	noElse := p.chance(25)
	branch := func(taken bool) (string, bool) {
		cB := c
		cB.depth++
		if !taken {
			cB.sc = c.sc.clone()
			cB.countOK = false
			cB.dead = true
		}
		return p.blockIn(cB, ind)
	}
	thenB, thenC := branch(condVal)
	if noElse {
		if condVal {
			return ind + "if (" + cond + ") " + thenB + "\n", thenC
		}
		return ind + "if (" + cond + ") " + thenB + "\n", c.consumed
	}
	elseB, elseC := branch(!condVal)
	if !condVal {
		thenC = elseC // the taken branch's
	}
	return ind + "if (" + cond + ") " + thenB + " else " + elseB + "\n", thenC
}

// varyingCond builds a static-but-unknown boolean condition from a
// varying binding, or returns "".
func (p *progGen) varyingCond(sc *scope) string {
	vs := sc.collect(nil, func(b *binding) bool {
		return b.val == nil && (b.kind == bChar || b.kind == bInt || b.kind == bString)
	})
	if len(vs) == 0 {
		return ""
	}
	b := vs[p.pick(len(vs))]
	switch b.kind {
	case bChar:
		op := "=="
		if p.chance(30) {
			op = "!="
		}
		return b.name + " " + op + " " + charLit(p.pickChar())
	case bInt:
		ops := []string{"<", "<=", ">", ">=", "=="}
		return b.name + " " + ops[p.pick(len(ops))] + " " + fmt.Sprintf("%d", p.pick(5))
	default:
		return b.name + ".length() " + []string{"==", "<", ">"}[p.pick(3)] + " " + fmt.Sprintf("%d", 1+p.pick(4))
	}
}

// ifRuntime emits an if over a negatable runtime predicate. Both branches
// are parallel elaborations on forked compile-time state; the
// continuation resumes the pre-statement state, so branch bodies may
// assign outer variables freely (the generator forks its tracking too).
func (p *progGen) ifRuntime(c stCtx, ind string) (string, bool) {
	p.cover["stmt/if-runtime"] = true
	cond, min := p.pred(predCtx{sc: c.sc, negatable: true, counterOK: c.consumed}, false)
	cT := c
	cT.sc = c.sc.clone()
	cT.consumed = c.consumed || min >= 1
	cT.depth++
	thenB, thenC := p.blockIn(cT, ind)
	if p.chance(30) {
		// No else: the implicit negation path completes without the body.
		return ind + "if (" + cond + ") " + thenB + "\n", c.consumed || min >= 1
	}
	cE := c
	cE.sc = c.sc.clone()
	cE.consumed = c.consumed || min >= 1
	cE.depth++
	elseB, elseC := p.blockIn(cE, ind)
	consumed := min >= 1 || (thenC && elseC)
	return ind + "if (" + cond + ") " + thenB + " else " + elseB + "\n", c.consumed || consumed
}

// whileStatic emits a compile-time-unrolled loop from a fixed template:
//
//	{ int i = 0; while (i < K) { <match>; ...; i = i + 1; } }
//
// The loop variable varies per iteration, so the free statements inside
// may not assign outer variables (each unrolled iteration threads the
// same environment in source order).
func (p *progGen) whileStatic(c stCtx, ind string) (string, bool) {
	p.cover["stmt/while-static"] = true
	p.cover["stmt/block"] = true
	k := 1 + p.pick(3)
	iv := p.name("v")

	var sb strings.Builder
	in2 := ind + "  "
	in3 := in2 + "  "
	sb.WriteString(ind + "{\n")
	sb.WriteString(in2 + "int " + iv + " = 0;\n")
	sb.WriteString(in2 + "while (" + iv + " < " + fmt.Sprintf("%d", k) + ") {\n")

	// Per-iteration consuming match: index a known string when one is
	// long enough, else a literal class.
	strs := c.sc.collect(nil, func(b *binding) bool {
		return b.kind == bString && b.val != nil && len(string(b.val.(value.Str))) >= k
	})
	if len(strs) > 0 && p.chance(70) {
		b := strs[p.pick(len(strs))]
		sb.WriteString(in3 + b.name + "[" + iv + "] == input();\n")
		p.cover["static/index"] = true
	} else {
		sb.WriteString(in3 + "input() == " + charLit(p.pickChar()) + ";\n")
	}
	p.cover["stmt/assert"] = true

	// Optional free statements: locals only, loop variable varying.
	body := newScope(c.sc)
	body.declare(&binding{name: iv, kind: bInt}) // varying
	cB := c
	cB.sc = body
	cB.consumed = true
	cB.floor = body
	cB.depth += 2
	for i, n := 0, p.pick(2); i < n; i++ {
		text, _ := p.stmt(cB, in3)
		sb.WriteString(text)
	}

	sb.WriteString(in3 + iv + " = " + iv + " + 1;\n")
	sb.WriteString(in2 + "}\n")

	// Post-loop statement inside the wrapper, occasionally.
	if p.chance(40) {
		cP := c
		cP.sc = newScope(c.sc)
		cP.consumed = true // k >= 1 iterations each consume
		cP.depth++
		text, _ := p.stmt(cP, in2)
		sb.WriteString(text)
	}
	sb.WriteString(ind + "}\n")
	return sb.String(), true
}

// whileRuntime emits a feedback loop over a negatable, symbol-consuming
// condition. The body is a single elaboration of forked state; the exit
// continuation resumes the entry state.
func (p *progGen) whileRuntime(c stCtx, ind string) (string, bool) {
	p.cover["stmt/while-runtime"] = true
	cond, _ := p.pred(predCtx{sc: c.sc, negatable: true, counterOK: c.consumed}, true)
	cB := c
	cB.sc = c.sc.clone()
	cB.consumed = true // the condition consumed ≥1 symbol
	cB.depth++
	body, _ := p.blockIn(cB, ind)
	// The exit path matches the negated condition, which consumes the
	// same (fixed) number of symbols.
	return ind + "while (" + cond + ") " + body + "\n", true
}

// seqChoice is an iteration source for foreach/some.
type seqChoice struct {
	text     string
	elemKind bKind // element binding kind
	elemMin  int   // for string elements: min length
	count    int   // number of elements (≥1)
	chars    bool  // iterating a String (char elements)
}

func (p *progGen) pickSeq(sc *scope) seqChoice {
	var choices []seqChoice
	// String literal.
	lit := p.randString(1, 4)
	choices = append(choices, seqChoice{text: `"` + lit + `"`, elemKind: bChar, count: len(lit), chars: true})
	for sco := sc; sco != nil; sco = sco.parent {
		for _, b := range sco.binds {
			switch {
			case b.kind == bString && b.val != nil && len(string(b.val.(value.Str))) >= 1:
				choices = append(choices, seqChoice{text: b.name, elemKind: bChar, count: len(string(b.val.(value.Str))), chars: true})
			case b.kind == bString && b.val == nil && b.minLen >= 1:
				choices = append(choices, seqChoice{text: b.name, elemKind: bChar, count: b.minLen, chars: true})
			case b.kind == bStringArr && b.val != nil:
				arr := b.val.(value.Array)
				min := 1 << 30
				for _, e := range arr {
					if n := len(string(e.(value.Str))); n < min {
						min = n
					}
				}
				choices = append(choices, seqChoice{text: b.name, elemKind: bString, elemMin: min, count: len(arr)})
			case b.kind == bIntArr && b.val != nil:
				choices = append(choices, seqChoice{text: b.name, elemKind: bInt, count: len(b.val.(value.Array))})
			}
		}
	}
	return choices[p.pick(len(choices))]
}

// foreachStmt emits foreach (sequential) or some (parallel) over a
// non-empty sequence. The loop variable is varying; bodies may only
// assign their own locals (foreach threads one environment through the
// unrolled iterations; some forks per element with a shared
// continuation).
func (p *progGen) foreachStmt(c stCtx, ind string, parallel bool) (string, bool) {
	if parallel && p.chance(10) {
		return p.wideSome(c, ind), true
	}
	seq := p.pickSeq(c.sc)
	kw := "foreach"
	if parallel {
		kw = "some"
		p.cover["stmt/some"] = true
	} else {
		p.cover["stmt/foreach"] = true
	}

	vn := p.name("x")
	var elemType string
	body := newScope(c.sc.clone())
	switch seq.elemKind {
	case bChar:
		elemType = "char"
		body.declare(&binding{name: vn, kind: bChar}) // varying
	case bString:
		elemType = "String"
		body.declare(&binding{name: vn, kind: bString, minLen: seq.elemMin})
	default:
		elemType = "int"
		body.declare(&binding{name: vn, kind: bInt})
	}

	cB := c
	cB.sc = body
	cB.floor = body
	cB.depth++

	var sb strings.Builder
	in2 := ind + "  "
	consumedByBody := false

	// Lead statement makes the body consume meaningfully per element.
	switch seq.elemKind {
	case bChar:
		sb.WriteString(in2 + vn + " == input();\n")
		p.cover["stmt/assert"] = true
		consumedByBody = true
	case bString:
		// Match the element's characters: the classic flattened-array
		// pattern of the paper.
		inner := p.name("x")
		sb.WriteString(in2 + "foreach (char " + inner + " : " + vn + ") " + inner + " == input();\n")
		p.cover["stmt/foreach"] = true
		p.cover["stmt/assert"] = true
		consumedByBody = seq.elemMin >= 1
	default:
		// Integer elements: counter threshold or consuming fallback.
		if cs := p.countersIn(c.sc); len(cs) > 0 && (c.consumed || cB.consumed) {
			cn := cs[p.pick(len(cs))].name
			sb.WriteString(in2 + cn + " >= " + vn + ";\n")
			p.cover["counter/check"] = true
			p.cover["stmt/assert"] = true
		} else {
			sb.WriteString(in2 + "input() == " + charLit(p.pickChar()) + ";\n")
			p.cover["stmt/assert"] = true
			consumedByBody = true
		}
	}
	cB.consumed = cB.consumed || consumedByBody

	for i, n := 0, p.pick(2); i < n; i++ {
		text, consumed := p.stmt(cB, in2)
		sb.WriteString(text)
		cB.consumed = cB.consumed || consumed
	}

	out := ind + kw + " (" + elemType + " " + vn + " : " + seq.text + ") {\n" + sb.String() + ind + "}\n"
	// Sequential: consumption accumulates across ≥1 iterations.
	// Parallel: every element thread runs the same body.
	return out, c.consumed || consumedByBody
}

// wideSome emits a some over 17–26 distinct letters and then a shared
// continuation, in a block so the continuation follows it anywhere (network
// statements run in parallel). The continuation takes one in-edge per
// letter, more than the device's routing fan-in bound of 16, so the device
// network splits it. The continuation and the step after it match any
// symbol and a report follows them, so a letter routed to a split copy
// reports only through the copy's out-edges.
func (p *progGen) wideSome(c stCtx, ind string) string {
	p.cover["stmt/block"], p.cover["stmt/some"], p.cover["stmt/assert"], p.cover["stmt/report"] = true, true, true, true
	if !c.dead {
		p.reports++
	}
	letters := []byte("abcdefghijklmnopqrstuvwxyz")
	p.rng.Shuffle(len(letters), func(i, j int) { letters[i], letters[j] = letters[j], letters[i] })
	letters = letters[:17+p.pick(10)]
	for _, b := range letters {
		p.alpha[b] = true
	}
	vn, in2 := p.name("x"), ind+"  "
	return ind + "{\n" +
		in2 + "some (char " + vn + " : \"" + string(letters) + "\") " + vn + " == input();\n" +
		in2 + "ALL_INPUT == input();\n" +
		in2 + "ALL_INPUT == input();\n" +
		in2 + "report;\n" +
		ind + "}\n"
}

// eitherStmt emits 2–3 parallel arms; each arm elaborates forked state
// and the continuation resumes the entry state.
func (p *progGen) eitherStmt(c stCtx, ind string) (string, bool) {
	p.cover["stmt/either"] = true
	n := 2
	if p.chance(30) {
		n = 3
	}
	var arms []string
	all := true
	for i := 0; i < n; i++ {
		cA := c
		cA.sc = c.sc.clone()
		cA.depth++
		body, consumed := p.blockIn(cA, ind)
		arms = append(arms, body)
		all = all && consumed
	}
	return ind + "either " + strings.Join(arms, " orelse ") + "\n", c.consumed || all
}

// wheneverStmt emits a sliding-window search. The guard may be any
// runtime predicate, including zero-width counter thresholds (the star
// state anchors them); the body always runs with a symbol consumed.
func (p *progGen) wheneverStmt(c stCtx, ind string) (string, bool) {
	p.cover["stmt/whenever"] = true
	p.whenevers++
	guard, _ := p.pred(predCtx{sc: c.sc, negatable: false, counterOK: true}, false)
	cB := c
	cB.consumed = true
	cB.depth++
	body, _ := p.blockIn(cB, ind)
	// The statement's continuation runs per body completion, but the
	// whenever itself completes no path of its own; treat the following
	// statements as consumed (they only execute after a guarded match).
	return ind + "whenever (" + guard + ") " + body + "\n", true
}

// ---------------------------------------------------------------- preds

// predCtx controls runtime-predicate generation.
type predCtx struct {
	sc         *scope
	negatable  bool // must survive eval.Normalize(negated=true)
	counterOK  bool // zero-width counter check allowed at the head
	noCounters bool // no counter checks anywhere (clean-frontier leads)
	depth      int
}

// pred emits a runtime boolean predicate, returning its minimum consumed
// length. If mustConsume, the result consumes ≥1 symbol on every path.
func (p *progGen) pred(c predCtx, mustConsume bool) (string, int) {
	// Conjunction of 1..3 parts. Counter checks may appear as soon as an
	// earlier conjunct consumes (the frontier has left the start).
	n := 1 + p.weighted([]int{55, 30, 15})
	var parts []string
	total := 0
	counterOK := c.counterOK
	needConsume := mustConsume
	for i := 0; i < n; i++ {
		force := needConsume && i == n-1
		c2 := c
		c2.counterOK = counterOK
		part, min := p.simplePred(c2, force)
		parts = append(parts, part)
		total += min
		if min >= 1 {
			counterOK = true
			needConsume = false
		}
	}
	if len(parts) == 1 {
		return parts[0], total
	}
	return "(" + strings.Join(parts, " && ") + ")", total
}

// simplePred emits one conjunct.
func (p *progGen) simplePred(c predCtx, forceConsume bool) (string, int) {
	counters := p.countersIn(c.sc)
	type choice struct {
		w int
		f func() (string, int)
	}
	var choices []choice
	add := func(w int, f func() (string, int)) { choices = append(choices, choice{w, f}) }

	add(6, func() (string, int) { return p.charMatch(c), 1 })
	if len(counters) > 0 && c.counterOK && !c.noCounters && !forceConsume {
		add(3, func() (string, int) { return p.counterCheck(counters), 0 })
	}
	// Single-symbol disjunction: negatable (the alternatives merge into
	// one character class).
	add(2, func() (string, int) {
		p.cover["pred/alt"] = true
		return "(" + p.charMatch(c) + " || " + p.charMatch(c) + ")", 1
	})
	// Negation of a negatable, fixed-length operand.
	add(2, func() (string, int) {
		p.cover["pred/not"] = true
		inner := c
		inner.negatable = true
		if len(counters) > 0 && c.counterOK && !c.noCounters && !forceConsume && p.chance(30) {
			return "!" + p.counterCheck(counters), 0
		}
		if p.chance(30) {
			return "!(" + p.charMatch(inner) + " || " + p.charMatch(inner) + ")", 1
		}
		return "!(" + p.charMatch(inner) + ")", 1
	})
	if !c.negatable && c.depth < 2 {
		// Free-form disjunction: alternatives of different lengths are
		// fine when the predicate is never negated.
		add(2, func() (string, int) {
			p.cover["pred/alt"] = true
			c2 := c
			c2.depth++
			left, lm := p.pred(c2, forceConsume)
			right, rm := p.pred(c2, forceConsume)
			min := lm
			if rm < min {
				min = rm
			}
			return "(" + left + " || " + right + ")", min
		})
	}

	weights := make([]int, len(choices))
	for i, ch := range choices {
		weights[i] = ch.w
	}
	return choices[p.weighted(weights)].f()
}

// charMatch emits one single-symbol comparison against input().
func (p *progGen) charMatch(c predCtx) string {
	var rhs string
	op := "=="
	switch p.weighted([]int{50, 14, 10, 10, 16}) {
	case 0:
		rhs = charLit(p.pickChar())
		if p.chance(18) {
			op = "!="
		}
	case 1:
		// A char variable (known or varying).
		vs := c.sc.collect(nil, func(b *binding) bool { return b.kind == bChar })
		if len(vs) == 0 {
			rhs = charLit(p.pickChar())
		} else {
			rhs = vs[p.pick(len(vs))].name
		}
	case 2:
		p.cover["pred/start-of-input"] = true
		rhs = "START_OF_INPUT"
	case 3:
		if c.negatable {
			// ALL_INPUT negates to the empty class; keep negatable
			// predicates meaningful.
			rhs = charLit(p.pickChar())
		} else {
			p.cover["pred/all-input"] = true
			rhs = "ALL_INPUT"
		}
	default:
		// Indexing a known string: s[i].
		strs := c.sc.collect(nil, func(b *binding) bool {
			return b.kind == bString && b.val != nil && len(string(b.val.(value.Str))) >= 1
		})
		if len(strs) == 0 {
			rhs = charLit(p.pickChar())
		} else {
			b := strs[p.pick(len(strs))]
			n := len(string(b.val.(value.Str)))
			rhs = fmt.Sprintf("%s[%d]", b.name, p.pick(n))
			p.cover["static/index"] = true
			for _, ch := range []byte(string(b.val.(value.Str))) {
				p.alpha[ch] = true
			}
		}
	}
	if p.chance(50) {
		return "input() " + op + " " + rhs
	}
	return rhs + " " + op + " input()"
}

// counterCheck emits a zero-width counter threshold comparison.
func (p *progGen) counterCheck(counters []*binding) string {
	p.cover["counter/check"] = true
	cn := counters[p.pick(len(counters))].name
	op := []string{">=", ">", "<", "<=", "==", "!="}[p.weighted([]int{30, 20, 18, 12, 12, 8})]
	n := p.weighted([]int{6, 24, 28, 22, 12, 8}) // 0..5, mostly small
	if p.chance(50) {
		return "(" + cn + " " + op + " " + fmt.Sprintf("%d", n) + ")"
	}
	return "(" + fmt.Sprintf("%d", n) + " " + flipCmp(op) + " " + cn + ")"
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// ---------------------------------------------------------------- static

// staticInt emits a compile-time int expression with a known value.
func (p *progGen) staticInt(sc *scope, depth int) (string, int64) {
	if depth >= 2 || p.chance(45) {
		// Leaves.
		vs := sc.collect(nil, func(b *binding) bool { return b.kind == bInt && b.val != nil })
		if len(vs) > 0 && p.chance(45) {
			b := vs[p.pick(len(vs))]
			return b.name, int64(b.val.(value.Int))
		}
		if p.chance(18) {
			strs := sc.collect(nil, func(b *binding) bool { return b.kind == bString && b.val != nil })
			if len(strs) > 0 {
				b := strs[p.pick(len(strs))]
				p.cover["static/length"] = true
				return b.name + ".length()", int64(len(string(b.val.(value.Str))))
			}
		}
		n := int64(p.pick(10))
		return fmt.Sprintf("%d", n), n
	}
	lt, lv := p.staticInt(sc, depth+1)
	rt, rv := p.staticInt(sc, depth+1)
	switch p.weighted([]int{30, 20, 15, 10, 10}) {
	case 0:
		return "(" + lt + " + " + rt + ")", lv + rv
	case 1:
		return "(" + lt + " - " + rt + ")", lv - rv
	case 2:
		if lv*rv > 4000 || lv*rv < -4000 {
			return "(" + lt + " + " + rt + ")", lv + rv
		}
		return "(" + lt + " * " + rt + ")", lv * rv
	case 3:
		d := int64(1 + p.pick(5))
		return "(" + lt + " / " + fmt.Sprintf("%d", d) + ")", lv / d
	default:
		d := int64(1 + p.pick(5))
		return "(" + lt + " % " + fmt.Sprintf("%d", d) + ")", lv % d
	}
}

// staticBool emits a compile-time bool expression with a known value.
func (p *progGen) staticBool(sc *scope, depth int) (string, bool) {
	if depth >= 2 || p.chance(40) {
		vs := sc.collect(nil, func(b *binding) bool { return b.kind == bBool && b.val != nil })
		if len(vs) > 0 && p.chance(40) {
			b := vs[p.pick(len(vs))]
			return b.name, bool(b.val.(value.Bool))
		}
		if p.chance(50) {
			lt, lv := p.staticInt(sc, 1)
			rt, rv := p.staticInt(sc, 1)
			ops := []struct {
				s string
				f func(a, b int64) bool
			}{
				{"<", func(a, b int64) bool { return a < b }},
				{"<=", func(a, b int64) bool { return a <= b }},
				{">", func(a, b int64) bool { return a > b }},
				{">=", func(a, b int64) bool { return a >= b }},
				{"==", func(a, b int64) bool { return a == b }},
				{"!=", func(a, b int64) bool { return a != b }},
			}
			op := ops[p.pick(len(ops))]
			return "(" + lt + " " + op.s + " " + rt + ")", op.f(lv, rv)
		}
		if p.chance(50) {
			return "true", true
		}
		return "false", false
	}
	switch p.pick(3) {
	case 0:
		t, v := p.staticBool(sc, depth+1)
		return "!" + parenIfNeeded(t), !v
	case 1:
		lt, lv := p.staticBool(sc, depth+1)
		rt, rv := p.staticBool(sc, depth+1)
		return "(" + lt + " && " + rt + ")", lv && rv
	default:
		lt, lv := p.staticBool(sc, depth+1)
		rt, rv := p.staticBool(sc, depth+1)
		return "(" + lt + " || " + rt + ")", lv || rv
	}
}

func parenIfNeeded(t string) string {
	if strings.HasPrefix(t, "(") || !strings.ContainsAny(t, " ") {
		return t
	}
	return "(" + t + ")"
}

// staticCharKnown emits a char expression whose value the generator
// knows.
func (p *progGen) staticCharKnown(sc *scope) (string, byte) {
	vs := sc.collect(nil, func(b *binding) bool { return b.kind == bChar && b.val != nil })
	if len(vs) > 0 && p.chance(30) {
		b := vs[p.pick(len(vs))]
		return b.name, byte(b.val.(value.Char))
	}
	strs := sc.collect(nil, func(b *binding) bool { return b.kind == bString && b.val != nil && len(string(b.val.(value.Str))) >= 1 })
	if len(strs) > 0 && p.chance(30) {
		b := strs[p.pick(len(strs))]
		s := string(b.val.(value.Str))
		i := p.pick(len(s))
		p.cover["static/index"] = true
		p.alpha[s[i]] = true
		return fmt.Sprintf("%s[%d]", b.name, i), s[i]
	}
	ch := p.pickChar()
	return charLit(ch), ch
}

// staticCharText emits a char expression for a macro argument: known
// values and varying char variables are both fine (macro parameters are
// varying anyway).
func (p *progGen) staticCharText(sc *scope) string {
	vs := sc.collect(nil, func(b *binding) bool { return b.kind == bChar })
	if len(vs) > 0 && p.chance(35) {
		return vs[p.pick(len(vs))].name
	}
	t, _ := p.staticCharKnown(sc)
	return t
}

// staticString emits a String expression with a known value of at least
// minLen characters.
func (p *progGen) staticString(sc *scope, minLen int) (string, string) {
	vs := sc.collect(nil, func(b *binding) bool {
		return b.kind == bString && b.val != nil && len(string(b.val.(value.Str))) >= minLen
	})
	if len(vs) > 0 && p.chance(40) {
		b := vs[p.pick(len(vs))]
		return b.name, string(b.val.(value.Str))
	}
	arrs := sc.collect(nil, func(b *binding) bool { return b.kind == bStringArr && b.val != nil })
	if len(arrs) > 0 && p.chance(30) {
		b := arrs[p.pick(len(arrs))]
		arr := b.val.(value.Array)
		// All generated array elements have length ≥ 1.
		i := p.pick(len(arr))
		if s := string(arr[i].(value.Str)); len(s) >= minLen {
			p.cover["static/index"] = true
			for _, ch := range []byte(s) {
				p.alpha[ch] = true
			}
			return fmt.Sprintf("%s[%d]", b.name, i), s
		}
	}
	s := p.randString(minLen, minLen+3)
	return `"` + s + `"`, s
}
