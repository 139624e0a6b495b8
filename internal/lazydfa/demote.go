package lazydfa

// Adaptive budget controller (RE2's "is the DFA cache useless?" heuristic,
// adapted to per-state eviction). The budget grows on demand from its
// small initial size toward the byte-denominated cap as states intern
// (see stateCache.intern); eviction only begins at the cap. The walk
// calls adapt with the bytes its lanes stepped or skipped, once they reach
// a chunk and once more when it ends; the eviction delta over that window
// is the thrash signal.
//
// Demotion fires when, at the cap, one eviction per demoteDenominator
// bytes is sustained for demoteWindows consecutive windows: the working
// set will never fit, and every cached transition is amortizing fewer
// than demoteDenominator bytes of walking, which the NFA bitset walk
// beats without the interning overhead. The tier then drops its cache
// and finishes on the bitset path, so no workload runs slower than the
// nfa-bitset tier beyond the detection window.
const (
	demoteDenominator = 8
	demoteWindows     = 4
)

// adapt inspects the eviction rate over the last window and reports
// whether the tier should demote now. Only called when the budget is
// adaptive (Options.MaxCachedStates == 0).
func (t *tier) adapt(window int) bool {
	c := t.cache
	dE := c.evictions - t.lastEvictions
	t.lastEvictions = c.evictions
	if dE*demoteDenominator >= window && dE > 0 {
		t.thrashWindows++
		return t.thrashWindows >= demoteWindows
	}
	t.thrashWindows = 0
	return false
}

// demote flips the tier to the NFA bitset walk permanently and releases
// the cache's memory.
func (t *tier) demote() {
	t.demoted = true
	t.demotions++
	t.cache.releaseAll()
}
