package lazydfa

import "context"

// Adaptive budget controller (RE2's "is the DFA cache useless?" heuristic,
// adapted to per-state eviction). The budget grows on demand from its
// small initial size toward the byte-denominated cap as states intern
// (see stateCache.intern); eviction only begins at the cap. The walker
// calls adapt once per input chunk with the chunk length; the eviction
// delta over that window is the thrash signal.
//
// Demotion fires when, at the cap, one eviction per demoteDenominator
// bytes is sustained for demoteWindows consecutive windows: the working
// set will never fit, and every cached transition is amortizing fewer
// than demoteDenominator bytes of walking, which the NFA bitset walk
// beats without the interning overhead. The matcher then drops the cache
// and finishes on the bitset path, so no workload runs slower than the
// nfa-bitset tier beyond the detection window.
const (
	demoteDenominator = 8
	demoteWindows     = 4
)

// adapt inspects the eviction rate over the last window and reports
// whether the matcher should demote now. Only called when the budget is
// adaptive (Options.MaxCachedStates == 0).
func (m *Matcher) adapt(window int) bool {
	c := m.cache
	dE := c.evictions - m.lastEvictions
	m.lastEvictions = c.evictions
	if dE*demoteDenominator >= window && dE > 0 {
		m.thrashWindows++
		return m.thrashWindows >= demoteWindows
	}
	m.thrashWindows = 0
	return false
}

// demote flips the matcher to the NFA bitset walk permanently and releases
// the cache's memory. The whole-cache drop is what Flushes() now counts.
func (m *Matcher) demote() {
	m.demoted = true
	m.demotions++
	m.flushes++
	m.cache.releaseAll()
}

// runDemoted finishes a stream on the pure components' bitset simulator —
// the same kernel the nfa-bitset tier runs. It serves a demoted matcher's
// whole runs (enabled == nil) and the mid-stream hand-off (enabled = the
// configuration at the demotion point, base = bytes already consumed).
// The simulator's per-element reports go out raw; run canonicalizes them.
func (m *Matcher) runDemoted(ctx context.Context, input []byte, out []Report, base int, enabled []uint64) ([]Report, error) {
	if m.pureSim == nil {
		m.pureSim = m.prog.k.NewFastSimulator()
	}
	m.pureSim.Seed(enabled, base)
	raw, err := m.pureSim.Feed(ctx, input)
	return appendSimReports(out, raw), err
}
