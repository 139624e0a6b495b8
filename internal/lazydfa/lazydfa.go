// Package lazydfa executes automaton networks on the CPU through an
// on-the-fly (RE2-style) determinization: DFA states are NFA enabled-sets
// discovered as input is consumed, interned in a bounded cache, and reused
// across streams. Unlike an ahead-of-time subset construction, which must
// abort once the state space outgrows its budget, the lazy engine never
// aborts: when the cache is full it evicts one cold state at a time
// (second-chance clock), and when even eviction cannot keep up it demotes
// itself to an NFA bitset walk mid-stream, so no input ever runs slower
// than the nfa-bitset tier by more than the detection window.
//
// Five mechanisms carry the throughput:
//
//   - Transition rows are indexed by symbol equivalence group, not by raw
//     byte: a design distinguishing g of the 256 symbols stores g-entry
//     rows in one contiguous slab. Dense-report workloads whose state
//     working set runs to tens of thousands of states (Brill) walk a
//     cache-resident table instead of thrashing DRAM on 1 KiB rows. A cell
//     holds the successor's premultiplied row offset plus a has-reports
//     flag, so a plain step is one load, one add and one compare.
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
//   - RunGroup walks up to Lanes independent streams interleaved through
//     one cache. A single walk waits on each cell load before it can
//     address the next; four cursors stepped in lockstep give the core
//     four independent load chains, and one test on the four cells
//     sends a step to the slow path, which resolves the lanes one at a
//     time with every lane's state pinned against eviction.
//   - A lone stream of at least Lanes × automata.CancelCheckInterval bytes
//     walks as Lanes segments through the same lanes. Segments after the
//     first start in a guess, the start state, which meets the true walk
//     within a few dozen bytes on the paper designs. Each cut is then
//     verified by replaying the guess beside the true configuration until
//     the two cursors meet; a guess that has not met within 1 KiB is
//     dropped and the true walk finishes the segment itself, and a tier
//     whose guesses keep missing stops speculating.
//   - Split carries the segment walk across matchers: a stream of two
//     such spans or more is cut into four segments per span, clones of
//     the matcher walk spans of them at once, each in its own cache, and
//     the matcher that split it verifies every cut in its own.
//
// Designs containing counters or boolean gates run as two tiers of the
// same lazy DFA: weakly-connected components made only of STEs determinize
// their enable vectors, while components containing special elements
// determinize whole configurations — the enable vector followed by the
// counters' saturating values, which the step kernel advances together.
// The tiers are kept apart because the product of independent counters can
// blow the second one up; each has its own cache, budget and demotion
// verdict, and a tier that demotes hands its configuration, counter values
// included, to the bitset walk. Both see the same input stream, and their
// report runs are merged in offset order.
package lazydfa

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
)

// Options bound the engine's memory use and select its heuristics.
type Options struct {
	// MaxCachedStates, when positive, fixes each tier's state cache at
	// exactly this many states: eviction still runs per state, but the adaptive
	// budget controller and the mid-stream demotion heuristic are
	// disabled, which makes execution deterministic for tests. Values below
	// 2 are raised to 2 (the minimum needed to hold a state and its
	// successor). Zero or negative selects the adaptive budget.
	MaxCachedStates int

	// MaxCacheBytes caps the adaptive budget's memory, denominated in
	// estimated bytes of cache (rows, configurations, in-edge records,
	// index). It is the matcher's cap, shared equally by its tiers; each
	// tier's cap in states is derived from its word and group counts.
	// Default DefaultMaxCacheBytes. Ignored when MaxCachedStates is
	// positive.
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
	// and Gappy, ~37k states each) fit with room to spare.
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

// Matcher executes one design. It owns mutable state (the DFA caches) and
// is not safe for concurrent use; Clone gives each goroutine an
// independent matcher sharing the immutable compiled tables.
type Matcher struct {
	tiers    []*tier // the pure component set's, then the special set's; either may be absent
	mergeBuf []automata.Report
	outs     [][]automata.Report // RunGroup's per-stream report runs
	mids     []int               // where the current tier's run starts in each of outs
	lanes    laneSet             // every walk's lanes
	spans    spans               // the stream m last split
}

// tier is the lazy DFA of one component set: its compiled facts, state
// cache, and learned heuristics.
type tier struct {
	prog *program

	cache     *stateCache
	activeBuf []uint64
	nextBuf   []uint64
	codesBuf  []int

	replayed []automata.Report // the segment walk's replayed guess's discarded reports

	// Prefilter state. prefilter starts true when the design has usable
	// facts and flips off permanently when measured dead runs are too
	// short to pay for the scan.
	prefilter     bool
	skipWindowN   int
	skipWindowLen int

	// Adaptive budget / demotion state.
	adaptive      bool
	lastEvictions int
	thrashWindows int
	demoted       bool
	sim           *automata.FastSimulator // built on first demoted run

	// speculate is the segment walk's verdict: it flips off for good after
	// specMissLimit missed segments in a row (missRun).
	speculate  bool
	missRun    int
	specHits   int
	specMisses int

	fills     int
	demotions int
	skipped   int
}

// New freezes the network (validating it), splits its topology into the
// counter-free and special component sets, and compiles each tier's
// tables. Construction is O(elements × alphabet) — the step kernels of the
// two sub-topologies; the DFAs themselves materialize during execution.
func New(n *automata.Network, opts *Options) (*Matcher, error) {
	o := opts.withDefaults()
	top, err := n.Freeze()
	if err != nil {
		return nil, fmt.Errorf("lazydfa: %w", err)
	}
	pure, special := automata.SplitSpecials(top)
	m := &Matcher{}
	for _, sub := range []*automata.Topology{pure, special} {
		if sub != nil {
			m.tiers = append(m.tiers, &tier{prog: compile(sub), speculate: true})
		}
	}
	if len(m.tiers) == 0 {
		return nil, fmt.Errorf("lazydfa: design has no live components")
	}
	o.maxCacheBytes /= int64(len(m.tiers)) // the byte cap is the matcher's, not each tier's
	for _, t := range m.tiers {
		start, limit, adaptive := cacheBudget(o, t.prog)
		t.adaptive = adaptive
		t.prefilter = !o.disablePrefilter && t.prog.hasFacts && len(t.prog.liveBytes) <= maxPrefilterBytes
		t.reset(start, limit)
	}
	return m, nil
}

// reset gives the tier an empty cache and fresh scratch.
func (t *tier) reset(max, limit int) {
	t.activeBuf = make([]uint64, t.prog.nwords)
	t.nextBuf = make([]uint64, t.prog.nwords)
	t.cache = newStateCache(t.prog, max, limit)
}

// cacheBudget resolves the options into the cache's starting budget and
// hard cap. Fixed caps disable the adaptive controller. Either cap is
// clamped so every row offset, limit × ngroups, fits under cellIDMask.
func cacheBudget(o options, p *program) (start, limit int, adaptive bool) {
	cells := int(cellIDMask) / p.ngroups
	if o.fixed > 0 {
		limit = min(o.fixed, cells)
		return limit, limit, false
	}
	limit = min(max(int(o.maxCacheBytes/int64(p.stateBytes)), 16), cells)
	return min(max(o.initial, 2), limit), limit, true
}

// Clone returns an independent matcher sharing the immutable compiled
// tables but owning fresh (empty) DFA caches, so a server can fan one
// design out across goroutines. Learned heuristic state carries over: the
// clone inherits each tier's grown cache budget, its demotion decision,
// its prefilter enable/disable verdict and its speculation verdict.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{}
	for _, t := range m.tiers {
		ct := &tier{prog: t.prog, adaptive: t.adaptive, demoted: t.demoted, prefilter: t.prefilter, speculate: t.speculate}
		ct.reset(t.cache.max, t.cache.limit)
		c.tiers = append(c.tiers, ct)
	}
	return c
}

// HasPureTier reports whether any component is counter- and gate-free, its
// DFA states plain enable vectors.
func (m *Matcher) HasPureTier() bool { return !m.tiers[0].prog.special }

// HasCounterTier reports whether any component contains counters or gates,
// its DFA states enable vectors with counter values.
func (m *Matcher) HasCounterTier() bool { return m.tiers[len(m.tiers)-1].prog.special }

func (m *Matcher) sum(f func(*tier) int) (n int) {
	for _, t := range m.tiers {
		n += f(t)
	}
	return n
}

// CachedStates returns the number of DFA states currently interned, over
// both tiers (as do all the counts below). The cache persists across runs,
// so repeated streams reuse hot transitions.
func (m *Matcher) CachedStates() int { return m.sum(func(t *tier) int { return len(t.cache.meta) }) }

// CacheBudget returns the caches' current state budget — the fixed
// MaxCachedStates, or wherever the adaptive controller has grown to.
func (m *Matcher) CacheBudget() int { return m.sum(func(t *tier) int { return t.cache.max }) }

// Fills returns how many transitions the matcher has materialized on
// cache misses (one per (state, symbol-group) cell filled). Together with
// Evictions it is the cache-efficiency signal the telemetry layer
// surfaces.
func (m *Matcher) Fills() int { return m.sum(func(t *tier) int { return t.fills }) }

// SpeculationHits returns how many speculative segments met the true walk
// within reach, so their lane's walk stood.
func (m *Matcher) SpeculationHits() int { return m.sum(func(t *tier) int { return t.specHits }) }

// SpeculationMisses returns how many speculative segments never met it, so
// the true walk finished them itself.
func (m *Matcher) SpeculationMisses() int { return m.sum(func(t *tier) int { return t.specMisses }) }

// Evictions returns how many single states the caches have evicted to make
// room.
func (m *Matcher) Evictions() int { return m.sum(func(t *tier) int { return t.cache.evictions }) }

// PrefilterSkipped returns how many input bytes the rest-state prefilter
// skipped with vector scans instead of stepping.
func (m *Matcher) PrefilterSkipped() int { return m.sum(func(t *tier) int { return t.skipped }) }

// Demotions returns how many tiers demoted to the NFA bitset walk (each at
// most once — demotion is sticky).
func (m *Matcher) Demotions() int { return m.sum(func(t *tier) int { return t.demotions }) }

// Demoted reports whether a tier has demoted itself to the NFA bitset
// walk.
func (m *Matcher) Demoted() bool {
	for _, t := range m.tiers {
		if t.demoted {
			return true
		}
	}
	return false
}

// Run executes the design over one input stream and returns the merged
// report events in (offset, code) order.
func (m *Matcher) Run(input []byte) []automata.Report {
	out, _ := m.RunAppend(context.Background(), input, nil)
	return out
}

// RunAppend is Run with cooperative cancellation, appending into dst
// (which may be nil) so callers can recycle report buffers across streams:
// input is processed in chunks and the run aborts with ctx.Err() once ctx
// is done, returning the reports produced so far.
func (m *Matcher) RunAppend(ctx context.Context, input []byte, dst []automata.Report) ([]automata.Report, error) {
	outs, err := m.RunGroup(ctx, [][]byte{input})
	return append(dst, outs[0]...), err
}

// RunGroup runs each of inputs as an independent stream and returns their
// report runs in input order, each exactly what RunAppend would return for
// it. Each tier walks up to Lanes of the streams interleaved, so their table
// loads overlap instead of waiting on each other; a lone stream of at least
// SpanBytes is cut into Lanes speculative segments walked the same way
// (Split with one span). After Split, m's next RunGroup must be of the
// split stream alone: it walks the spans left beside the clones helping,
// waits for theirs, and joins them. The runs are scratch owned by m and
// valid until its next run. If ctx ends first, the walk stops, the runs
// hold a prefix of each stream's reports, and err is ctx.Err().
func (m *Matcher) RunGroup(ctx context.Context, inputs [][]byte) ([][]automata.Report, error) {
	return m.runGroup(ctx, inputs, specReach)
}

// runGroup is RunGroup with the segment walk's cut checks at most reach
// bytes deep.
func (m *Matcher) runGroup(ctx context.Context, inputs [][]byte, reach int) (_ [][]automata.Report, err error) {
	sp := &m.spans
	if sp.ctx == nil && len(inputs) == 1 && len(inputs[0]) >= SpanBytes {
		m.Split(ctx, inputs[0], 1)
	}
	if sp.ctx != nil {
		m.HelpSpans(m)
		sp.walks.Wait()
	}
	if len(m.outs) < len(inputs) {
		m.outs, m.mids = make([][]automata.Report, len(inputs)), make([]int, len(inputs))
	}
	outs := m.outs[:len(inputs)]
	for s := range outs {
		outs[s] = outs[s][:0]
	}
	for i, t := range m.tiers {
		for s := range outs {
			m.mids[s] = len(outs[s])
		}
		if sp.ctx != nil && !sp.failed[i].Load() {
			err = t.joinSpans(ctx, &sp.tiers[i], &m.lanes, outs, reach)
		} else { // the group on the lanes, and a split stream whose span walks did not all stand as one lane
			err = t.walk(ctx, m.lanes.reset(inputs, outs, nil))
		}
		for s := range outs {
			outs[s] = m.merge(outs[s], m.mids[s])
		}
		if err != nil {
			break
		}
	}
	if sp.ctx != nil { // the stream is the caller's again
		clear(sp.tiers[0].inputs)
		sp.ctx = nil
	}
	m.lanes.release()
	return outs, err
}

// SpanBytes is the shortest span: a lone stream of one span or more walks
// as Lanes speculative segments per span.
const SpanBytes = Lanes * automata.CancelCheckInterval

// spans is a lone long stream that one matcher, or several of one design
// at once, walks as spans of SpanBytes or more, each of Lanes segments.
// Each matcher claims the next span from a shared counter and walks its
// segments as lanes in its own cache from the start state; the splitting
// matcher's RunGroup waits for the spans others claimed and then verifies
// every cut in its own caches. The matchers hand over configuration words,
// never state ids.
type spans struct {
	// next holds the span count in its high half and the claims in its
	// low half. Split stores it last, so a matcher that claims a span
	// reads the stream it belongs to, and one that claims after the last
	// span was taken walks nothing and is never waited for.
	next   atomic.Int64
	walks  sync.WaitGroup // the spans not yet walked
	failed [2]atomic.Bool // per tier: a span walk did not stand
	ctx    context.Context
	tiers  []laneSet // per tier: the segments, their reports and end configurations
}

// Split cuts input into n spans of at least SpanBytes (1 ≤ n ≤ len(input)
// / SpanBytes) for m and clones of it (HelpSpans) to walk under ctx.
func (m *Matcher) Split(ctx context.Context, input []byte, n int) {
	sp, segs := &m.spans, Lanes*n
	sp.tiers = slices.Grow(sp.tiers[:0], len(m.tiers))[:len(m.tiers)]
	prefixes := sp.tiers[0].inputs[:0]
	for k := 1; k <= segs; k++ {
		prefixes = append(prefixes, input[:k*len(input)/segs])
	}
	for i, t := range m.tiers {
		ls, w := &sp.tiers[i], t.prog.nwords
		ls.inputs, ls.ends = prefixes, slices.Grow(ls.ends[:0], segs*w)[:segs*w]
		ls.outs = append(ls.outs, make([][]automata.Report, max(segs-len(ls.outs), 0))...)
	}
	sp.ctx, sp.failed = ctx, [2]atomic.Bool{}
	sp.walks.Add(n)
	sp.next.Store(int64(n) << 32)
}

// HelpSpans walks the spans of the stream splitter split that m claims
// until none is left, and returns how many it walked. A tier that cannot
// walk segments, demotes or is cancelled leaves the tier to the splitter.
func (m *Matcher) HelpSpans(splitter *Matcher) (walked int) {
	sp := &splitter.spans
	defer m.lanes.release()
	for ; ; walked++ {
		v := sp.next.Add(1) - 1
		if int32(v) >= int32(v>>32) {
			return walked
		}
		for i, t := range m.tiers {
			if sp.failed[i].Load() || !t.segments() || t.walkSegments(sp.ctx, &m.lanes, &sp.tiers[i], Lanes*int(int32(v))) != nil || t.demoted {
				sp.failed[i].Store(true)
			}
		}
		sp.walks.Done()
	}
}

// merge folds the canonical runs out[:mid] and out[mid:] — the earlier
// tiers' reports and one tier's — into one canonical run in place, keeping
// a single copy of an (offset, code) both reported. The lazy walk emits
// reports canonical (offset-ordered, codes sorted and distinct per offset),
// and runDemoted makes the bitset walk's automata.Canonical.
func (m *Matcher) merge(out []automata.Report, mid int) []automata.Report {
	if mid == 0 || mid == len(out) {
		return out
	}
	m.mergeBuf = append(m.mergeBuf[:0], out[:mid]...)
	a, b, w := m.mergeBuf, out[mid:], 0
	for ; len(a) > 0 || len(b) > 0; w++ {
		if len(b) == 0 || len(a) > 0 && automata.CompareReports(a[0], b[0]) <= 0 {
			if len(b) > 0 && a[0] == b[0] {
				b = b[1:]
			}
			out[w], a = a[0], a[1:]
		} else {
			out[w], b = b[0], b[1:]
		}
	}
	return out[:w]
}

// slowStep takes the step from row offset cur on sym off the fast path: it
// fills an unfilled cell, appends the step's reports at offset, and drops a
// rest flag the prefilter no longer wants. It returns the successor's row
// offset, out, and whether the step entered the rest state with the
// prefilter on, so the caller skips dead bytes.
func (t *tier) slowStep(cur int32, sym byte, out []automata.Report, offset int) (int32, []automata.Report, bool) {
	c := t.cache
	g := int32(t.prog.groupOf[sym])
	v := c.rows[cur+g]
	if v < 0 {
		v = t.miss(cur, g, sym)
	}
	if v&cellReport != 0 {
		for _, gc := range c.meta[cur/c.ngroups].reps {
			if gc.group == g {
				for _, code := range gc.codes {
					out = append(out, automata.Report{Offset: offset, Code: code})
				}
				break
			}
		}
	}
	if v&cellRest != 0 && !t.prefilter {
		c.rows[cur+g] &^= cellRest
	}
	return v & cellIDMask, out, v&cellRest != 0 && t.prefilter
}

// startState interns the start-of-data configuration (no enables,
// counters zero, first symbol pending) and returns its row offset. The
// cache is kept warm across runs, so this is an index hit on every stream
// after the first.
func (t *tier) startState() int32 {
	clear(t.nextBuf)
	return t.cache.intern(t.nextBuf, true) * t.cache.ngroups
}

// miss materializes the transition of the state at row offset cur on
// symbol sym's equivalence group g: it steps the NFA configuration through
// the kernel (into the tier's scratch buffers), interns the successor
// (possibly evicting one cold state — never cur's, which the caller
// pinned, nor another lane's), fills the row cell with the successor's
// offset and flags, and records the in-edge so eviction of the successor
// can repair the cell lazily.
func (t *tier) miss(cur, g int32, sym byte) int32 {
	t.fills++
	c := t.cache
	id := cur / c.ngroups
	var codes []int
	if t.prog.k.Step(c.config(id), c.meta[id].first, sym, t.activeBuf, t.nextBuf) {
		codes = t.prog.k.ReportCodes(t.codesBuf[:0], t.activeBuf)
		t.codesBuf = codes
	}
	succ := c.intern(t.nextBuf, false)
	v := succ * c.ngroups
	if len(codes) > 0 {
		v |= cellReport
		c.meta[id].setCodes(g, codes)
	}
	if t.prefilter && succ*c.ngroups == c.restOff {
		v |= cellRest
	}
	c.rows[cur+g] = v
	c.noteInEdge(succ, id, g)
	c.meta[id].ref = true
	return v
}

// skipDead scans s for the first byte that can advance the rest
// configuration and returns, and counts as skipped, the dead bytes before
// it (possibly the whole of s). With an empty live set the rest
// configuration is dead and the entire remainder is skipped. The scan
// keeps its own payoff statistics and permanently disables the prefilter
// when the average dead run is too short to amortize the vector scan.
func (t *tier) skipDead(s []byte) int {
	n := len(s)
	live := t.prog.liveBytes
	switch {
	case n == 0:
		return 0
	case len(live) == 0:
		t.skipped += n
		return n
	default:
		for _, b := range live {
			if j := bytes.IndexByte(s[:n], b); j >= 0 {
				n = j
			}
		}
	}
	t.skipWindowN++
	t.skipWindowLen += n
	if t.skipWindowN == 64 {
		if t.skipWindowLen < 64*8 {
			t.prefilter = false
		}
		t.skipWindowN, t.skipWindowLen = 0, 0
	}
	t.skipped += n
	return n
}
