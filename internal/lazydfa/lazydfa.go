// Package lazydfa executes automaton networks on the CPU through an
// on-the-fly (RE2-style) determinization: DFA states are NFA enabled-sets
// discovered as input is consumed, interned in a bounded cache, and reused
// across streams. Where internal/dfa's ahead-of-time subset construction
// aborts once the state space exceeds MaxStates, the lazy engine never
// aborts: when the cache is full it evicts one cold state at a time
// (second-chance clock), and when even eviction cannot keep up it demotes
// itself to an NFA bitset walk mid-stream, so no input ever runs slower
// than the nfa-bitset tier by more than the detection window.
//
// Three mechanisms carry the throughput:
//
//   - Transition rows are indexed by symbol equivalence group, not by raw
//     byte: a design distinguishing g of the 256 symbols stores g-entry
//     rows in one contiguous slab. Dense-report workloads whose state
//     working set runs to tens of thousands of states (Brill) walk a
//     cache-resident table instead of thrashing DRAM on 1 KiB rows.
//   - The state cache evicts per state with lazy in-edge repair: a
//     transition into an evicted state is reset to "unfilled" and
//     recomputes on demand, so a full cache costs one recomputation per
//     cold edge instead of a flush-and-restart of every hot state. The
//     budget is adaptive by default — it starts small and doubles toward a
//     byte-denominated cap while the observed eviction rate stays high.
//   - A compile-time prefilter (automata.ExtractPrefilter) identifies the
//     rest configuration and the byte set that can advance it; while the
//     DFA sits in the rest state the input is scanned with bytes.IndexByte
//     instead of stepped byte-by-byte, and the skip disables itself when
//     measured dead runs are too short to pay for the scan.
//
// Designs containing counters or boolean gates are handled by a hybrid
// split: weakly-connected components made only of STEs run on the lazy
// DFA, while components containing special elements run on a cloned
// FastSimulator bitset path. Both halves see the same input stream, and
// their reports are merged in offset order.
package lazydfa

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"repro/internal/automata"
)

// Report is a report event produced by lazy-DFA execution. Reports are
// deduplicated by (offset, code): several NFA elements reporting the same
// code at one offset produce a single event, exactly as internal/dfa does.
type Report struct {
	Offset int
	Code   int
}

// Options bound the engine's memory use and select its heuristics.
type Options struct {
	// MaxCachedStates, when positive, fixes the state cache at exactly
	// this many states: eviction still runs per state, but the adaptive
	// budget controller and the mid-stream demotion heuristic are
	// disabled, which makes execution deterministic for tests and for the
	// rapidbench -lazy-cache sweep. Values below 2 are raised to 2 (the
	// minimum needed to hold a state and its successor). Zero or negative
	// selects the adaptive budget.
	MaxCachedStates int

	// MaxCacheBytes caps the adaptive budget's memory, denominated in
	// estimated bytes of cache (rows, keys, configurations, in-edge
	// records). The cap in states is derived per design from its word and
	// group counts. Default DefaultMaxCacheBytes. Ignored when
	// MaxCachedStates is positive.
	MaxCacheBytes int64

	// InitialCachedStates is the adaptive budget's starting size; the
	// budget doubles toward the byte cap while the eviction rate per
	// input byte stays high. Default DefaultInitialCachedStates. Ignored
	// when MaxCachedStates is positive.
	InitialCachedStates int

	// DisablePrefilter turns off the rest-state byte skip even when the
	// design has usable prefilter facts. Used by differential tests to
	// force the stepped and skipped paths against each other.
	DisablePrefilter bool
}

const (
	// DefaultMaxCacheBytes bounds the adaptive state cache at 64 MiB per
	// matcher. The paper workloads' largest observed working sets (Brill
	// and Gappy, ~37k states each) fit with room to spare; servers fanning
	// a design across many workers can lower it with WithMaxCacheBytes.
	DefaultMaxCacheBytes = 64 << 20

	// DefaultInitialCachedStates is the adaptive budget's starting size.
	DefaultInitialCachedStates = 64

	// maxPrefilterBytes is the widest live-byte set the prefilter will
	// scan for; beyond it, repeated bytes.IndexByte passes cost more than
	// stepping.
	maxPrefilterBytes = 4
)

type options struct {
	fixed            int
	maxCacheBytes    int64
	initial          int
	disablePrefilter bool
}

func (o *Options) withDefaults() options {
	out := options{maxCacheBytes: DefaultMaxCacheBytes, initial: DefaultInitialCachedStates}
	if o == nil {
		return out
	}
	if o.MaxCachedStates > 0 {
		out.fixed = o.MaxCachedStates
		if out.fixed < 2 {
			out.fixed = 2
		}
	}
	if o.MaxCacheBytes > 0 {
		out.maxCacheBytes = o.MaxCacheBytes
	}
	if o.InitialCachedStates > 0 {
		out.initial = o.InitialCachedStates
	}
	out.disablePrefilter = o.DisablePrefilter
	return out
}

// Matcher executes one design. It owns mutable state (the DFA cache and,
// for hybrid designs, a bitset simulator) and is not safe for concurrent
// use; Clone gives each goroutine an independent matcher sharing the
// immutable compiled tables.
type Matcher struct {
	prog *program                // lazy tier (nil when every component has specials)
	sim  *automata.FastSimulator // bitset tier (nil for counter-free designs)

	cache     *stateCache
	activeBuf []uint64
	nextBuf   []uint64
	codesBuf  []int

	// Prefilter state. prefilter starts true when the design has usable
	// facts and flips off permanently when measured dead runs are too
	// short to pay for the scan.
	prefilter     bool
	liveBytes     []byte
	skipWindowN   int
	skipWindowLen int

	// Adaptive budget / demotion state.
	adaptive      bool
	lastEvictions int
	thrashWindows int
	demoted       bool
	pureSim       *automata.FastSimulator // built on first demoted run

	fills     int
	flushes   int
	demotions int
	skipped   int
}

// New freezes the network (validating it), splits its topology into the
// counter-free and special component sets, and compiles the lazy tier's
// tables. Construction is O(elements × alphabet) — the step kernels of the
// two sub-topologies; the DFA itself materializes during execution.
func New(n *automata.Network, opts *Options) (*Matcher, error) {
	o := opts.withDefaults()
	t, err := n.Freeze()
	if err != nil {
		return nil, fmt.Errorf("lazydfa: %w", err)
	}
	pure, special := automata.SplitSpecials(t)
	m := &Matcher{}
	if pure != nil {
		m.prog = compile(pure)
		m.activeBuf = make([]uint64, m.prog.nwords)
		m.nextBuf = make([]uint64, m.prog.nwords)
		max, limit, adaptive := cacheBudget(o, m.prog)
		m.adaptive = adaptive
		m.cache = newStateCache(m.prog, max, limit)
		if !o.disablePrefilter && m.prog.hasFacts && len(m.prog.liveBytes) <= maxPrefilterBytes {
			m.prefilter = true
			m.liveBytes = m.prog.liveBytes
		}
	}
	if special != nil {
		m.sim = special.NewFastSimulator()
	}
	if m.prog == nil && m.sim == nil {
		return nil, fmt.Errorf("lazydfa: design has no live components")
	}
	return m, nil
}

// cacheBudget resolves the options into the cache's starting budget and
// hard cap. Fixed caps disable the adaptive controller.
func cacheBudget(o options, p *program) (max, limit int, adaptive bool) {
	if o.fixed > 0 {
		max = o.fixed
		if max > int(cellIDMask) {
			max = int(cellIDMask)
		}
		return max, max, false
	}
	limit = int(o.maxCacheBytes / int64(p.stateBytes))
	if limit < 16 {
		limit = 16
	}
	if limit > int(cellIDMask) {
		limit = int(cellIDMask)
	}
	max = o.initial
	if max < 2 {
		max = 2
	}
	if max > limit {
		max = limit
	}
	return max, limit, true
}

// Clone returns an independent matcher sharing the immutable compiled
// tables but owning a fresh (empty) DFA cache and simulator state, so a
// server can fan one design out across goroutines. Learned heuristic
// state carries over: the clone inherits the parent's grown cache budget,
// its demotion decision, and its prefilter enable/disable verdict.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{
		prog:      m.prog,
		adaptive:  m.adaptive,
		demoted:   m.demoted,
		prefilter: m.prefilter,
		liveBytes: m.liveBytes,
	}
	if m.prog != nil {
		c.activeBuf = make([]uint64, m.prog.nwords)
		c.nextBuf = make([]uint64, m.prog.nwords)
		c.cache = newStateCache(m.prog, m.cache.max, m.cache.limit)
	}
	if m.sim != nil {
		c.sim = m.sim.Clone()
	}
	return c
}

// HasLazyTier reports whether any component runs on the lazy DFA.
func (m *Matcher) HasLazyTier() bool { return m.prog != nil }

// HasBitsetTier reports whether any component (one containing counters or
// gates) runs on the bitset simulator fallback.
func (m *Matcher) HasBitsetTier() bool { return m.sim != nil }

// CachedStates returns the number of DFA states currently interned. The
// cache persists across runs, so repeated streams reuse hot transitions.
func (m *Matcher) CachedStates() int {
	if m.cache == nil {
		return 0
	}
	return len(m.cache.meta)
}

// CacheBudget returns the cache's current state budget — the fixed
// MaxCachedStates, or wherever the adaptive controller has grown to.
func (m *Matcher) CacheBudget() int {
	if m.cache == nil {
		return 0
	}
	return m.cache.max
}

// Fills returns how many transitions the matcher has materialized on
// cache misses (one per (state, symbol-group) cell filled). Together with
// Evictions it is the cache-efficiency signal the telemetry layer
// surfaces.
func (m *Matcher) Fills() int { return m.fills }

// Flushes returns how many times the whole state cache was dropped. Under
// per-state eviction this no longer happens on capacity pressure; the only
// remaining whole-cache drop is the one performed by demotion, when the
// DFA gives the memory back before switching to the bitset walk.
func (m *Matcher) Flushes() int { return m.flushes }

// Evictions returns how many single states the cache has evicted to make
// room.
func (m *Matcher) Evictions() int {
	if m.cache == nil {
		return 0
	}
	return m.cache.evictions
}

// PrefilterSkipped returns how many input bytes the rest-state prefilter
// skipped with vector scans instead of stepping.
func (m *Matcher) PrefilterSkipped() int { return m.skipped }

// Demotions returns how many times the matcher demoted its lazy tier to
// the NFA bitset walk (at most once — demotion is sticky).
func (m *Matcher) Demotions() int { return m.demotions }

// Demoted reports whether the lazy tier has demoted itself to the NFA
// bitset walk.
func (m *Matcher) Demoted() bool { return m.demoted }

// Run executes the design over one input stream and returns the merged
// report events in (offset, code) order.
func (m *Matcher) Run(input []byte) []Report {
	out, _ := m.run(context.Background(), input, nil)
	return out
}

// RunContext is Run with cooperative cancellation: input is processed in
// chunks and the run aborts with ctx.Err() once ctx is done, returning the
// reports produced so far.
func (m *Matcher) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	return m.run(ctx, input, nil)
}

// RunAppend is RunContext appending into dst (which may be nil), letting
// callers recycle report buffers across streams.
func (m *Matcher) RunAppend(ctx context.Context, input []byte, dst []Report) ([]Report, error) {
	return m.run(ctx, input, dst)
}

func (m *Matcher) run(ctx context.Context, input []byte, out []Report) ([]Report, error) {
	base := len(out)
	var err error
	if m.prog != nil {
		out, err = m.runLazy(ctx, input, out)
	}
	if m.sim != nil && err == nil {
		var raw []automata.Report
		raw, err = m.sim.RunContext(ctx, input)
		out = appendSimReports(out, raw)
	}
	// The lazy walk emits reports already canonical (offset-ordered, codes
	// sorted and distinct per offset); a simulator's — the special tier's,
	// or the pure tier's after demotion — are per element, so the combined
	// tail needs a re-sort and dedup unless it is canonical already, the
	// common case for a lone simulator emitting in offset order.
	if (m.sim != nil || m.demoted) && !isCanonical(out[base:]) {
		tail := canonicalize(out[base:])
		out = out[:base+len(tail)]
	}
	return out, err
}

func appendSimReports(out []Report, raw []automata.Report) []Report {
	for _, r := range raw {
		out = append(out, Report{Offset: r.Offset, Code: r.Code})
	}
	return out
}

func isCanonical(rs []Report) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Offset < rs[i-1].Offset ||
			(rs[i].Offset == rs[i-1].Offset && rs[i].Code <= rs[i-1].Code) {
			return false
		}
	}
	return true
}

// runLazy walks the lazy DFA over input, materializing transitions on
// demand. The per-symbol fast path is a single data-dependent load: the
// group-indexed row cell carries the successor id and a has-reports flag
// in one int32.
func (m *Matcher) runLazy(ctx context.Context, input []byte, out []Report) ([]Report, error) {
	if m.demoted {
		return m.runDemoted(ctx, input, out, 0, nil)
	}
	p := m.prog
	c := m.cache
	cur := m.startState()
	base := 0
	for len(input) > 0 {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		chunk := input
		if len(chunk) > automata.CancelCheckInterval {
			chunk = chunk[:automata.CancelCheckInterval]
		}
		rest := int32(-1) // cur is never negative, so -1 disables the check
		if m.prefilter {
			rest = c.restID
		}
		for i := 0; i < len(chunk); i++ {
			if cur == rest {
				if n := m.skipDead(chunk[i:]); n > 0 {
					m.skipped += n
					i += n
					if i >= len(chunk) {
						break
					}
				}
				if !m.prefilter {
					rest = -1
				}
			}
			sym := chunk[i]
			g := int(p.groupOf[sym])
			v := c.rows[int(cur)*c.ngroups+g]
			if v < 0 {
				v = m.miss(cur, g, sym)
				rest = -1
				if m.prefilter {
					rest = c.restID
				}
			}
			if v&cellReport != 0 {
				for _, gc := range c.meta[cur].reps {
					if gc.group == int32(g) {
						for _, code := range gc.codes {
							out = append(out, Report{Offset: base + i, Code: code})
						}
						break
					}
				}
			}
			cur = v & cellIDMask
		}
		base += len(chunk)
		input = input[len(chunk):]
		if m.adaptive && m.adapt(len(chunk)) {
			// Demote: carry the live NFA configuration into the bitset
			// walk and give the cache memory back.
			// (cur consumed at least one chunk, so it is never the
			// first-symbol start state.)
			enabled := c.meta[cur].enabled
			m.demote()
			return m.runDemoted(ctx, input, out, base, enabled)
		}
	}
	return out, nil
}

// startState interns the start-of-data configuration (no enables, first
// symbol pending). The cache is kept warm across runs, so this is a map
// hit on every stream after the first.
func (m *Matcher) startState() int32 {
	for i := range m.nextBuf {
		m.nextBuf[i] = 0
	}
	return m.cache.intern(m.nextBuf, true, -1)
}

// miss materializes the transition of state cur on symbol sym's
// equivalence group: it steps the NFA configuration through the kernel
// (into the matcher's scratch buffers), interns the successor
// (possibly evicting one cold state — never cur, which is pinned), fills
// the row cell, and records the in-edge so eviction of the successor can
// repair the cell lazily.
func (m *Matcher) miss(cur int32, g int, sym byte) int32 {
	m.fills++
	c := m.cache
	st := c.meta[cur]
	var codes []int
	if m.prog.k.Step(st.enabled, st.first, sym, m.activeBuf, m.nextBuf) {
		codes = m.prog.k.ReportCodes(m.codesBuf[:0], m.activeBuf)
		m.codesBuf = codes
	}
	succ := c.intern(m.nextBuf, false, cur)
	v := succ
	if len(codes) > 0 {
		v |= cellReport
		c.meta[cur].setCodes(int32(g), codes)
	}
	c.rows[int(cur)*c.ngroups+g] = v
	c.noteInEdge(succ, cur, int32(g))
	c.meta[cur].ref = true
	return v
}

// skipDead scans s for the first byte that can advance the rest
// configuration and returns the count of dead bytes before it (possibly
// the whole of s). With an empty live set the rest configuration is dead
// and the entire remainder is skipped. The scan keeps its own payoff
// statistics and permanently disables the prefilter when the average dead
// run is too short to amortize the vector scan.
func (m *Matcher) skipDead(s []byte) int {
	n := len(s)
	switch len(m.liveBytes) {
	case 0:
		return n
	case 1:
		if j := bytes.IndexByte(s, m.liveBytes[0]); j >= 0 {
			n = j
		}
	default:
		for _, b := range m.liveBytes {
			if j := bytes.IndexByte(s[:n], b); j >= 0 {
				n = j
			}
		}
	}
	m.skipWindowN++
	m.skipWindowLen += n
	if m.skipWindowN == 64 {
		if m.skipWindowLen < 64*8 {
			m.prefilter = false
		}
		m.skipWindowN, m.skipWindowLen = 0, 0
	}
	return n
}

// canonicalize sorts rs by (offset, code) and drops duplicates in place,
// returning the shortened slice.
func canonicalize(rs []Report) []Report {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Offset != rs[j].Offset {
			return rs[i].Offset < rs[j].Offset
		}
		return rs[i].Code < rs[j].Code
	})
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return out
}
