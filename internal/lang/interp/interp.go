// Package interp is a reference interpreter for RAPID programs.
//
// It executes the language's parallel-thread semantics directly over an
// input stream, mirroring the Automata Processor's lock-step execution
// model: all threads of computation synchronize at input() calls and
// receive the same symbol; parallel control structures fork threads; a
// false declarative assertion silently terminates its thread; counters are
// shared objects that increment at most once per symbol cycle.
//
// Staging discipline: compile-time state (ints, bools, strings, arrays) is
// carried per thread, and every control split forks the environment. Since
// the type system guarantees runtime values never flow into compile-time
// state, each thread's static timeline evolves exactly as the compiler's
// single staged evaluation does, which is what makes the interpreter a
// faithful differential-testing oracle for the compiler.
package interp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/lang/ast"
	"repro/internal/lang/eval"
	"repro/internal/lang/sema"
	"repro/internal/lang/value"
)

// Report is a report event: a report statement executed while processing
// the symbol at Offset.
type Report struct {
	Offset int
}

// Options bound interpreter resource usage.
type Options struct {
	// MaxSpawns caps the total number of threads created during a run
	// (guards against exponential forking). Default 1,000,000.
	MaxSpawns int
	// MaxSteps caps statement executions (guards against non-terminating
	// static loops). Default 10,000,000.
	MaxSteps int
}

func (o *Options) withDefaults() Options {
	out := Options{MaxSpawns: 1_000_000, MaxSteps: 10_000_000}
	if o != nil {
		if o.MaxSpawns > 0 {
			out.MaxSpawns = o.MaxSpawns
		}
		if o.MaxSteps > 0 {
			out.MaxSteps = o.MaxSteps
		}
	}
	return out
}

// Run executes the checked program over input with the given network
// arguments and returns the report events in offset order.
func Run(info *sema.Info, args []value.Value, input []byte, opts *Options) ([]Report, error) {
	net := info.Program.Network
	if len(args) != len(net.Params) {
		return nil, fmt.Errorf("interp: network takes %d arguments, have %d", len(net.Params), len(args))
	}
	m := &machine{
		info:        info,
		offset:      -1,
		counters:    make(map[*value.Counter]*counterState),
		counterMemo: make(map[string]*value.Counter),
		opts:        opts.withDefaults(),
	}

	// Statements within a network execute in parallel (Section 3.1).
	// Declarations and assignments are compile-time: they execute once, in
	// order, into a shared environment (so counters declared in the
	// network are shared by all parallel statements), and each remaining
	// statement becomes an independent parallel matcher. The environment
	// visible to a statement is snapshotted at its position, after the
	// compile-time effects of every statement before it (see elaborate).
	env := eval.NewEnv(nil)
	for i, p := range net.Params {
		env.Declare(p.Name, args[i])
	}
	type parallelStmt struct {
		s   ast.Stmt
		env *eval.Env
		ctx string
	}
	var parallel []parallelStmt
	nop := func(*eval.Env) {}
	for i, s := range net.Body.Stmts {
		switch s.(type) {
		case *ast.VarDeclStmt, *ast.AssignStmt, *ast.EmptyStmt:
			m.execStmt("net", env, s, nop)
			if m.err != nil {
				return nil, m.err
			}
		default:
			parallel = append(parallel, parallelStmt{s: s, env: env.Fork(), ctx: fmt.Sprintf("net#%d", i)})
			var err error
			if env, err = m.elaborate(env, s); err != nil {
				return nil, err
			}
		}
	}
	spawnNetwork := func() {
		for _, ps := range parallel {
			ps := ps
			m.spawn(func() { m.execStmt(ps.ctx, ps.env.Fork(), ps.s, nop) })
		}
	}

	spawnNetwork()
	m.drain()
	m.settleCounters()

	for i := 0; i < len(input) && m.err == nil; i++ {
		m.offset = i
		sym := input[i]
		// Whenever-spawners create this cycle's guard attempts; they park
		// into the input waiters before delivery.
		for _, sp := range m.spawners {
			sp()
		}
		m.drain()
		// Deliver the symbol to every parked thread.
		waiters := m.inputWaiters
		m.inputWaiters = nil
		for _, w := range waiters {
			w := w
			m.spawn(func() { w(sym) })
		}
		m.drain()
		m.settleCounters()
		// The implicit top-level sliding window: every START_OF_INPUT
		// symbol restarts the network for the following offset.
		if sym == ast.StartOfInputSymbol {
			spawnNetwork()
			m.drain()
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	sort.Slice(m.reports, func(i, j int) bool { return m.reports[i].Offset < m.reports[j].Offset })
	return m.reports, nil
}

// Offsets returns the sorted set of distinct report offsets, the
// device-comparable view of a report list.
func Offsets(reports []Report) []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range reports {
		if !seen[r.Offset] {
			seen[r.Offset] = true
			out = append(out, r.Offset)
		}
	}
	sort.Ints(out)
	return out
}

type counterState struct {
	val       int
	pendCount bool
	pendReset bool
}

// cont is an environment-passing continuation: each thread carries its own
// compile-time state forward.
type cont func(*eval.Env)

type machine struct {
	info *sema.Info
	opts Options
	// dry marks an elaboration machine (see elaborate): no input is read,
	// a symbol match passes at once unless its class is empty, and a
	// counter check passes at once.
	dry bool

	offset  int
	reports []Report
	err     error

	runnable       []func()
	inputWaiters   []func(byte)
	counterWaiters []func()
	spawners       []func()

	counters map[*value.Counter]*counterState
	// counterMemo maps a static elaboration path to its counter object:
	// the compiler elaborates each declaration site once per compile-time
	// instantiation, so dynamic re-entries (whenever spawns, runtime
	// while iterations, network restarts) share one physical counter.
	counterMemo map[string]*value.Counter

	spawnCount int
	stepCount  int
}

func (m *machine) fail(pos fmt.Stringer, format string, args ...interface{}) {
	if m.err == nil {
		m.err = fmt.Errorf("interp: %s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (m *machine) failNoPos(format string, args ...interface{}) {
	if m.err == nil {
		m.err = fmt.Errorf("interp: %s", fmt.Sprintf(format, args...))
	}
}

// enqueue schedules a continuation of the current thread without counting
// it as a new spawn; used to trampoline long compile-time loops so they do
// not grow the Go stack.
func (m *machine) enqueue(f func()) {
	m.runnable = append(m.runnable, f)
}

// spawn enqueues a new thread of execution.
func (m *machine) spawn(f func()) {
	m.spawnCount++
	if m.spawnCount > m.opts.MaxSpawns {
		m.failNoPos("thread limit exceeded (%d spawns); the program forks too aggressively", m.opts.MaxSpawns)
		return
	}
	m.runnable = append(m.runnable, f)
}

// drain runs threads until all are parked or dead.
func (m *machine) drain() {
	for len(m.runnable) > 0 && m.err == nil {
		f := m.runnable[len(m.runnable)-1]
		m.runnable = m.runnable[:len(m.runnable)-1]
		f()
	}
}

// settleCounters applies pending counter operations and wakes threads
// blocked on counter checks, iterating until the cycle quiesces.
func (m *machine) settleCounters() {
	for iter := 0; iter < 1000; iter++ {
		changed := false
		for _, st := range m.counters {
			if st.pendReset {
				st.val = 0
				st.pendCount, st.pendReset = false, false
				changed = true
			} else if st.pendCount {
				st.val++
				st.pendCount = false
				changed = true
			}
		}
		if len(m.counterWaiters) == 0 {
			if !changed {
				return
			}
			continue
		}
		waiters := m.counterWaiters
		m.counterWaiters = nil
		for _, w := range waiters {
			m.spawn(w)
		}
		m.drain()
		if m.err != nil {
			return
		}
	}
	m.failNoPos("counter settlement did not converge; cyclic counter dependencies")
}

func (m *machine) counter(c *value.Counter) *counterState {
	st, ok := m.counters[c]
	if !ok {
		st = &counterState{}
		m.counters[c] = st
	}
	return st
}

func (m *machine) awaitInput(f func(byte)) {
	m.inputWaiters = append(m.inputWaiters, f)
}

func (m *machine) awaitCounters(f func()) {
	m.counterWaiters = append(m.counterWaiters, f)
}

func (m *machine) step(pos fmt.Stringer) bool {
	m.stepCount++
	if m.stepCount > m.opts.MaxSteps {
		m.fail(pos, "step limit exceeded; does the program contain a non-terminating compile-time loop?")
		return false
	}
	return m.err == nil
}

// zeroValue returns the default value for a declared type.
func zeroValue(t *ast.TypeExpr) value.Value {
	if t.Dims > 0 {
		return value.Array{}
	}
	switch t.Base {
	case ast.TypeInt:
		return value.Int(0)
	case ast.TypeChar:
		return value.Char(0)
	case ast.TypeBool:
		return value.Bool(false)
	case ast.TypeString:
		return value.Str("")
	default:
		return value.Bool(false)
	}
}

// execStmt executes one statement, invoking k with the thread's
// environment when (and each time) control flows past it. ctx is the
// static elaboration path: it distinguishes compile-time instantiations
// (macro calls, unrolled loop iterations, parallel arms) but is shared by
// dynamic re-entries of the same site, mirroring how the compiler
// elaborates each site exactly once.
func (m *machine) execStmt(ctx string, env *eval.Env, s ast.Stmt, k cont) {
	if !m.step(s.Pos()) {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		child := eval.NewEnv(env)
		m.execStmts(ctx, child, s.Stmts, 0, func(after *eval.Env) { k(after.Parent()) })

	case *ast.EmptyStmt:
		k(env)

	case *ast.ReportStmt:
		if m.offset < 0 && !m.dry {
			m.fail(s.Pos(), "report before any input symbol is consumed")
			return
		}
		m.reports = append(m.reports, Report{Offset: m.offset})
		k(env)

	case *ast.VarDeclStmt:
		var v value.Value
		switch {
		case s.Type.Base == ast.TypeCounter && s.Type.Dims == 0:
			// One counter object per static elaboration of the
			// declaration site: re-entries share the physical counter.
			key := ctx + "|" + s.Name + "@" + s.Pos().String()
			counter, ok := m.counterMemo[key]
			if !ok {
				counter = &value.Counter{Name: s.Name}
				m.counterMemo[key] = counter
			}
			v = counter
		case s.Init != nil:
			ev, err := eval.Static(env, s.Init)
			if err != nil {
				m.err = err
				return
			}
			v = ev
		default:
			v = zeroValue(s.Type)
		}
		env.Declare(s.Name, v)
		k(env)

	case *ast.AssignStmt:
		v, err := eval.Static(env, s.Value)
		if err != nil {
			m.err = err
			return
		}
		if !env.Assign(s.Name, v) {
			m.fail(s.Pos(), "assignment to undeclared variable %q", s.Name)
			return
		}
		k(env)

	case *ast.ExprStmt:
		m.execExprStmt(ctx, env, s.X, k)

	case *ast.IfStmt:
		if m.info.IsRuntime(s.Cond) {
			// Both branches explore in parallel, consuming the same
			// symbols (the compiled form of Figure 8); each branch is an
			// independent thread with its own compile-time state.
			// The continuation is a single static elaboration shared by
			// both branches (the compiler compiles it once against the
			// union of the branch frontiers), so it resumes the
			// pre-statement compile-time state rather than either
			// branch's.
			resume := func(*eval.Env) { k(env.Fork()) }
			thenEnv := env.Fork()
			m.runPredExpr(thenEnv, s.Cond, false, func(e *eval.Env) {
				m.execStmt(ctx+"/t", e, s.Then, resume)
			})
			elseEnv := env.Fork()
			if s.Else != nil {
				m.runPredExpr(elseEnv, s.Cond, true, func(e *eval.Env) {
					m.execStmt(ctx+"/x", e, s.Else, resume)
				})
			} else {
				m.runPredExpr(elseEnv, s.Cond, true, resume)
			}
			return
		}
		v, err := eval.Static(env, s.Cond)
		if err != nil {
			m.err = err
			return
		}
		if b, _ := v.(value.Bool); bool(b) {
			m.execStmt(ctx+"/t", env, s.Then, k)
		} else if s.Else != nil {
			m.execStmt(ctx+"/x", env, s.Else, k)
		} else {
			k(env)
		}

	case *ast.WhileStmt:
		m.execWhile(ctx, env, s, k)

	case *ast.ForeachStmt:
		seq, err := m.iterable(env, s.Seq)
		if err != nil {
			m.err = err
			return
		}
		var loop func(e *eval.Env, i int)
		loop = func(e *eval.Env, i int) {
			if !m.step(s.Pos()) {
				return
			}
			if i >= len(seq) {
				k(e)
				return
			}
			iterEnv := eval.NewEnv(e)
			iterEnv.Declare(s.Var, seq[i])
			// Each unrolled iteration is its own static elaboration.
			m.execStmt(fmt.Sprintf("%s/f%d", ctx, i), iterEnv, s.Body, func(after *eval.Env) {
				m.enqueue(func() { loop(after.Parent(), i+1) })
			})
		}
		loop(env, 0)

	case *ast.SomeStmt:
		seq, err := m.iterable(env, s.Seq)
		if err != nil {
			m.err = err
			return
		}
		for i, elem := range seq {
			i, elem := i, elem
			threadEnv := eval.NewEnv(env.Fork())
			threadEnv.Declare(s.Var, elem)
			m.spawn(func() {
				// As with either/orelse, the continuation resumes the
				// pre-statement compile-time state: the compiler
				// elaborates it once below the union of all element
				// frontiers.
				m.execStmt(fmt.Sprintf("%s/s%d", ctx, i), threadEnv, s.Body,
					func(*eval.Env) { k(env.Fork()) })
			})
		}

	case *ast.EitherStmt:
		for i, blk := range s.Blocks {
			i, blk := i, blk
			forked := env.Fork()
			// Arms are independent elaborations; the continuation resumes
			// the pre-statement compile-time state (see SomeStmt).
			m.spawn(func() {
				m.execStmt(fmt.Sprintf("%s/e%d", ctx, i), forked, blk,
					func(*eval.Env) { k(env.Fork()) })
			})
		}

	case *ast.WheneverStmt:
		// From the next cycle onward, attempt the guard every cycle; each
		// success runs the body (in parallel with everything else).
		guardEnv := env.Fork()
		bodyCtx := ctx + "/n" // all spawns share one static elaboration
		if m.dry {
			m.runPredExpr(guardEnv, s.Guard, false, func(e *eval.Env) { m.execStmt(bodyCtx, e, s.Body, k) })
			return
		}
		m.spawners = append(m.spawners, func() {
			m.spawn(func() {
				attempt := guardEnv.Fork()
				m.runPredExpr(attempt, s.Guard, false, func(e *eval.Env) {
					m.execStmt(bodyCtx, e, s.Body, k)
				})
			})
		})

	default:
		m.fail(s.Pos(), "unexpected statement %T", s)
	}
}

// errElaborated stops an elaboration machine once one path is through.
var errElaborated = errors.New("interp: elaborated")

// elaborate returns the compile-time state network statement s leaves
// for the statements after it. The compiler elaborates network statements
// once each, in order, against one shared environment, so an assignment
// inside a block is visible to later statements whatever the input; a
// thread of s reaches its end only on matching input, at a later cycle.
// So s runs on a dry machine, on which every runtime predicate that can
// match does, until one path reaches its end: every path leaves the same
// state. A statement no path gets through leaves env as it was.
func (m *machine) elaborate(env *eval.Env, s ast.Stmt) (*eval.Env, error) {
	dry := &machine{info: m.info, opts: m.opts, dry: true, counters: map[*value.Counter]*counterState{},
		counterMemo: map[string]*value.Counter{}}
	out := env
	dry.execStmt("net", env.Fork(), s, func(e *eval.Env) { out, dry.err = e, errElaborated })
	dry.drain()
	if dry.err != nil && dry.err != errElaborated {
		return nil, dry.err
	}
	return out, nil
}

func (m *machine) execStmts(ctx string, env *eval.Env, stmts []ast.Stmt, i int, k cont) {
	if i >= len(stmts) {
		k(env)
		return
	}
	m.execStmt(ctx, env, stmts[i], func(after *eval.Env) { m.execStmts(ctx, after, stmts, i+1, k) })
}

func (m *machine) execWhile(ctx string, env *eval.Env, s *ast.WhileStmt, k cont) {
	if m.info.IsRuntime(s.Cond) {
		// A runtime loop body is elaborated once: every dynamic iteration
		// replays the same static timeline from the loop-entry
		// environment, and the exit continuation resumes the entry state.
		// This mirrors the compiler, which elaborates the body a single
		// time against a fork of the entry environment and compiles the
		// continuation against the untouched entry state.
		bodyCtx := ctx + "/W"
		var loop func(e *eval.Env)
		loop = func(*eval.Env) {
			if !m.step(s.Pos()) {
				return
			}
			if !m.dry { // the body's state is a copy's: only the exit matters
				m.runPredExpr(env.Fork(), s.Cond, false, func(pe *eval.Env) {
					m.execStmt(bodyCtx, pe, s.Body, loop)
				})
			}
			exitEnv := env.Fork()
			m.runPredExpr(exitEnv, s.Cond, true, func(*eval.Env) { k(env.Fork()) })
		}
		loop(env)
		return
	}
	// A static loop unrolls: each iteration is its own elaboration.
	var loop func(e *eval.Env, iter int)
	loop = func(e *eval.Env, iter int) {
		if !m.step(s.Pos()) {
			return
		}
		v, err := eval.Static(e, s.Cond)
		if err != nil {
			m.err = err
			return
		}
		if b, _ := v.(value.Bool); bool(b) {
			m.execStmt(fmt.Sprintf("%s/w%d", ctx, iter), e, s.Body,
				func(after *eval.Env) { m.enqueue(func() { loop(after, iter+1) }) })
		} else {
			k(e)
		}
	}
	loop(env, 0)
}

// execExprStmt handles expression statements: macro calls, counter method
// calls, and boolean assertions.
func (m *machine) execExprStmt(ctx string, env *eval.Env, x ast.Expr, k cont) {
	switch x := x.(type) {
	case *ast.CallExpr:
		macro, ok := m.info.Macros[x.Name]
		if !ok {
			m.fail(x.Pos(), "call to undefined macro %q", x.Name)
			return
		}
		callEnv := eval.NewEnv(nil)
		for i, p := range macro.Params {
			av, err := eval.Static(env, x.Args[i])
			if err != nil {
				m.err = err
				return
			}
			callEnv.Declare(p.Name, av)
		}
		// The caller's compile-time state resumes at each macro
		// completion; completions from forked paths inside the macro each
		// get their own copy. The call site extends the static path (the
		// compiler inlines the body here).
		callCtx := ctx + "/c" + x.Pos().String()
		m.execStmt(callCtx, callEnv, macro.Body, func(*eval.Env) { k(env.Fork()) })

	case *ast.MethodCallExpr:
		recv, err := eval.Static(env, x.Recv)
		if err != nil {
			m.err = err
			return
		}
		counter, ok := recv.(*value.Counter)
		if !ok {
			m.fail(x.Pos(), "method %q on non-counter %s", x.Method, recv)
			return
		}
		st := m.counter(counter)
		switch x.Method {
		case "count":
			st.pendCount = true
		case "reset":
			st.pendReset = true
		default:
			m.fail(x.Pos(), "unknown counter method %q", x.Method)
			return
		}
		k(env)

	default:
		// Boolean assertion: continue iff it (eventually) matches.
		if m.info.IsRuntime(x) {
			m.runPredExpr(env, x, false, k)
			return
		}
		v, err := eval.Static(env, x)
		if err != nil {
			m.err = err
			return
		}
		if b, ok := v.(value.Bool); ok && bool(b) {
			k(env)
		}
		// A false static assertion kills the thread silently.
	}
}

func (m *machine) iterable(env *eval.Env, seqExpr ast.Expr) ([]value.Value, error) {
	v, err := eval.Static(env, seqExpr)
	if err != nil {
		return nil, err
	}
	switch v := v.(type) {
	case value.Array:
		return v, nil
	case value.Str:
		out := make([]value.Value, len(v))
		for i := 0; i < len(v); i++ {
			out[i] = value.Char(v[i])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("interp: %s: cannot iterate %s", seqExpr.Pos(), v)
	}
}

// runPredExpr normalizes a runtime boolean expression and explores it,
// continuing with env on every successful path.
func (m *machine) runPredExpr(env *eval.Env, x ast.Expr, negated bool, k cont) {
	p, err := eval.Normalize(m.info, env, x, negated)
	if err != nil {
		m.err = err
		return
	}
	m.runPred(p, env, k)
}

// runPred explores a normalized predicate, invoking k on every successful
// path; forked alternatives each carry their own environment copy.
func (m *machine) runPred(p eval.Pred, env *eval.Env, k cont) {
	switch p := p.(type) {
	case eval.Const:
		if p.V {
			k(env)
		}
	case eval.Match:
		cls := p.Class
		if m.dry {
			if !cls.IsEmpty() {
				k(env)
			}
			return
		}
		m.awaitInput(func(sym byte) {
			if cls.Contains(sym) {
				k(env)
			}
		})
	case eval.CounterCheck:
		if m.dry {
			k(env)
			return
		}
		st := m.counter(p.C)
		m.awaitCounters(func() {
			if eval.EvalCounterCheck(p.Op, st.val, p.N) {
				k(env)
			}
		})
	case eval.Seq:
		var chain func(e *eval.Env, i int)
		chain = func(e *eval.Env, i int) {
			if i >= len(p.Parts) {
				k(e)
				return
			}
			m.runPred(p.Parts[i], e, func(after *eval.Env) { chain(after, i+1) })
		}
		chain(env, 0)
	case eval.Alt:
		for _, alt := range p.Alts {
			alt := alt
			forked := env.Fork()
			m.spawn(func() { m.runPred(alt, forked, k) })
		}
	default:
		m.failNoPos("unexpected predicate %T", p)
	}
}
