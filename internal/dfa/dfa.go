// Package dfa compiles counter-free homogeneous NFAs into deterministic
// finite automata for execution on conventional CPUs — the alternative
// compilation target the paper's conclusion anticipates ("code generation
// from RAPID for other pattern-recognition processors and CPUs is
// possible").
//
// The construction is the classic subset construction adapted to the AP's
// reporting semantics: a DFA state is a set of enabled STEs, a transition
// consumes one symbol, and a state/symbol pair "reports" the codes of the
// reporting STEs that activate on it. Hopcroft-style minimization merges
// behaviorally equivalent states. Execution is a dense table walk — one
// load per input byte — which typically beats NFA simulation by an order
// of magnitude at the cost of construction time and table memory.
package dfa

import (
	"fmt"
	"strings"

	"repro/internal/automata"
)

// Report is a report event produced by DFA execution, mirroring the NFA
// simulator's reports.
type Report struct {
	Offset int
	Code   int
}

// DFA is a compiled deterministic automaton.
type DFA struct {
	// next[state*256 + symbol] is the successor state.
	next []int32
	// hasReport is a dense bitmask over (state, symbol) pairs: bit
	// state*256+symbol is set when the pair reports. The hot byte loop
	// tests this mask — one table load and one branch — and consults the
	// reportsAt map only on the rare reporting path.
	hasReport []uint64
	// reportsAt maps (state, symbol) pairs that report to the report
	// codes emitted.
	reportsAt map[int64][]int
	// start is the state before any symbol is consumed (start-of-data
	// context); steady is the corresponding state afterwards.
	start  int32
	states int
}

// Options bound DFA construction.
type Options struct {
	// MaxStates aborts construction when the subset construction exceeds
	// this many states. Default 100,000.
	MaxStates int
	// Minimize runs state minimization after construction. Default true
	// (set MinimizeOff to disable).
	MinimizeOff bool
}

func (o *Options) withDefaults() Options {
	out := Options{MaxStates: 100_000}
	if o != nil {
		if o.MaxStates > 0 {
			out.MaxStates = o.MaxStates
		}
		out.MinimizeOff = o.MinimizeOff
	}
	return out
}

// States returns the number of DFA states.
func (d *DFA) States() int { return d.states }

// FromNetwork freezes a counter-free network and compiles it into a DFA.
func FromNetwork(n *automata.Network, opts *Options) (*DFA, error) {
	t, err := n.Freeze()
	if err != nil {
		return nil, err
	}
	return FromTopology(t, opts)
}

// FromTopology compiles a counter-free frozen topology into a DFA.
func FromTopology(t *automata.Topology, opts *Options) (*DFA, error) {
	o := opts.withDefaults()
	if !t.Pure() {
		return nil, fmt.Errorf("dfa: counters and gates are not supported; the design must be a pure NFA")
	}

	k := t.Kernel()
	b := &builder{
		k:      k,
		o:      o,
		part:   automata.Partition(t),
		ids:    map[string]int32{},
		dfa:    &DFA{reportsAt: map[int64][]int{}},
		active: make([]uint64, k.Words()),
		next:   make([]uint64, k.Words()),
	}
	// Two NFA contexts exist: the first symbol (start-of-data states are
	// eligible) and every later symbol. Model the first-symbol context as
	// a distinct DFA start state whose successors are steady states.
	start := b.intern(b.next, true) // nothing enabled yet
	b.dfa.start = start
	for len(b.queue) > 0 {
		cur := b.queue[0]
		b.queue = b.queue[1:]
		if err := b.expand(cur); err != nil {
			return nil, err
		}
	}
	b.dfa.states = len(b.ids)
	if !o.MinimizeOff {
		b.dfa.minimize()
	}
	return b.dfa, nil
}

// stateKey is one DFA state's NFA configuration: the enable vector and the
// first-symbol flag, the shape the step kernel consumes.
type stateKey struct {
	enabled []uint64
	first   bool
}

type builder struct {
	k      *automata.Kernel
	o      Options
	part   *automata.SymbolPartition
	ids    map[string]int32 // automata.AppendConfigKey bytes → state
	keys   []stateKey
	dfa    *DFA
	queue  []int32
	keyBuf []byte
	active []uint64 // kernel scratch: activations
	next   []uint64 // kernel scratch: successor configuration
}

// intern returns the DFA state id for an NFA configuration, creating and
// queueing it (with its own copy of enabled) when new.
func (b *builder) intern(enabled []uint64, first bool) int32 {
	b.keyBuf = automata.AppendConfigKey(b.keyBuf[:0], enabled, first)
	if id, ok := b.ids[string(b.keyBuf)]; ok {
		return id
	}
	id := int32(len(b.ids))
	b.ids[string(b.keyBuf)] = id
	b.keys = append(b.keys, stateKey{enabled: append([]uint64(nil), enabled...), first: first})
	b.dfa.next = append(b.dfa.next, make([]int32, 256)...)
	b.dfa.hasReport = append(b.dfa.hasReport, 0, 0, 0, 0) // 256 bits per state
	b.queue = append(b.queue, id)
	return id
}

// expand computes all 256 transitions of a DFA state: one kernel step per
// symbol group, applied to every symbol in the group.
func (b *builder) expand(state int32) error {
	if len(b.ids) > b.o.MaxStates {
		return fmt.Errorf("dfa: construction exceeded %d states", b.o.MaxStates)
	}
	cur := b.keys[state]
	for _, rep := range b.part.Representatives {
		var reports []int
		if b.k.Step(cur.enabled, cur.first, rep, b.active, b.next) {
			reports = b.k.ReportCodes(nil, b.active)
		}
		nextID := b.intern(b.next, false)
		for sym := 0; sym < 256; sym++ {
			if b.part.GroupOf[sym] != b.part.GroupOf[rep] {
				continue
			}
			b.dfa.next[int(state)*256+sym] = nextID
			if len(reports) > 0 {
				b.dfa.reportsAt[pairKey(state, byte(sym))] = reports
				b.dfa.setReportBit(state, byte(sym))
			}
		}
	}
	return nil
}

func pairKey(state int32, sym byte) int64 { return int64(state)<<8 | int64(sym) }

func (d *DFA) setReportBit(state int32, sym byte) {
	idx := int(state)<<8 | int(sym)
	d.hasReport[idx>>6] |= 1 << (uint(idx) & 63)
}

// Run executes the DFA over input and returns report events in offset
// order. The common no-report symbol costs one bitmask load and one
// branch; the reportsAt map is consulted only when the mask bit is set.
func (d *DFA) Run(input []byte) []Report {
	var out []Report
	state := d.start
	for offset, sym := range input {
		idx := int(state)<<8 | int(sym)
		if d.hasReport[idx>>6]&(1<<(uint(idx)&63)) != 0 {
			for _, code := range d.reportsAt[pairKey(state, sym)] {
				out = append(out, Report{Offset: offset, Code: code})
			}
		}
		state = d.next[idx]
	}
	return out
}

// ---------------------------------------------------------------- minimize

// minimize merges behaviorally equivalent states by iterative partition
// refinement (Moore's algorithm over the 256-symbol alphabet, with report
// signatures as the initial partition).
func (d *DFA) minimize() {
	n := d.states
	// Initial partition: states grouped by their full report signature.
	sig := make([]string, n)
	for s := 0; s < n; s++ {
		var sb strings.Builder
		for sym := 0; sym < 256; sym++ {
			if codes, ok := d.reportsAt[pairKey(int32(s), byte(sym))]; ok {
				fmt.Fprintf(&sb, "%d:%v;", sym, codes)
			}
		}
		sig[s] = sb.String()
	}
	group := make([]int, n)
	groups := map[string]int{}
	for s := 0; s < n; s++ {
		g, ok := groups[sig[s]]
		if !ok {
			g = len(groups)
			groups[sig[s]] = g
		}
		group[s] = g
	}
	// Refine until stable: split groups by successor-group signatures.
	groupCount := len(groups)
	for {
		next := map[string]int{}
		newGroup := make([]int, n)
		for s := 0; s < n; s++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d|", group[s])
			for sym := 0; sym < 256; sym++ {
				fmt.Fprintf(&sb, "%d,", group[d.next[s*256+sym]])
			}
			k := sb.String()
			g, ok := next[k]
			if !ok {
				g = len(next)
				next[k] = g
			}
			newGroup[s] = g
		}
		group = newGroup
		if len(next) == groupCount {
			break
		}
		groupCount = len(next)
	}
	// Rebuild tables over the merged states.
	count := 0
	for _, g := range group {
		if g+1 > count {
			count = g + 1
		}
	}
	rep := make([]int, count) // representative original state per group
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < n; s++ {
		if rep[group[s]] == -1 {
			rep[group[s]] = s
		}
	}
	newNext := make([]int32, count*256)
	newReports := map[int64][]int{}
	newHasReport := make([]uint64, count*4)
	d.hasReport, newHasReport = newHasReport, d.hasReport
	for g := 0; g < count; g++ {
		s := rep[g]
		for sym := 0; sym < 256; sym++ {
			newNext[g*256+sym] = int32(group[d.next[s*256+sym]])
			if codes, ok := d.reportsAt[pairKey(int32(s), byte(sym))]; ok {
				newReports[pairKey(int32(g), byte(sym))] = codes
				d.setReportBit(int32(g), byte(sym))
			}
		}
	}
	d.next = newNext
	d.reportsAt = newReports
	d.start = int32(group[d.start])
	d.states = count
}
