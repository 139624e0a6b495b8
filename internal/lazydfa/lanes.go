package lazydfa

import (
	"context"

	"repro/internal/automata"
)

// Lanes is how many streams of a group the interleaved walk keeps in
// flight. One stream's walk runs at load latency: each cell's address comes
// from the previous cell. Four independent cursors give the core four load
// chains to overlap, so a row miss in one lane hides behind the other three.
// stepLanes is written out for exactly four.
const Lanes = 4

// laneSet is the interleaved walk over a group of streams. Lanes [0, live)
// each run one stream: its index in the group, its unread input and the
// lane's cursor (a row offset). Idle lanes mirror lane 0, so the four-wide
// step needs no per-lane test.
type laneSet struct {
	inputs [][]byte
	outs   [][]Report
	stream [Lanes]int
	in     [Lanes][]byte
	cur    [Lanes]int32
	live   int
	next   int // the group's next stream to start
}

// offset is where lane k's unread input starts in its stream.
func (ls *laneSet) offset(k int) int { return len(ls.inputs[ls.stream[k]]) - len(ls.in[k]) }

// pin makes every lane's current state one eviction skips.
func (ls *laneSet) pin(c *stateCache) {
	for k, cur := range ls.cur {
		c.pins[k] = cur + 1
	}
}

// runGroup runs every stream of a group through the tier, appending stream
// s's reports to outs[s]. Up to Lanes streams walk interleaved; when one
// ends, the group's next stream takes its lane, and the last live lane
// finishes on runLazy from its cursor. Per round of lockstep steps the
// context is checked, and adapt counts the bytes of all lanes. Singles, a
// demoted tier, a cache too small to pin every lane and still evict, and
// the streams a demotion left unstarted run one after another.
func (t *tier) runGroup(ctx context.Context, inputs [][]byte, outs [][]Report) (err error) {
	c := t.cache
	ls := laneSet{inputs: inputs, outs: outs}
	for window := 0; len(inputs) > 1 && !t.demoted && c.limit > Lanes; {
		if t.refill(&ls); ls.live < 2 {
			if s := ls.stream[0]; ls.live == 1 {
				outs[s], err = t.runLazy(ctx, ls.in[0], outs[s], ls.cur[0], ls.offset(0))
			}
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		n := automata.CancelCheckInterval
		for _, in := range ls.in[:ls.live] {
			n = min(n, len(in))
		}
		steps := t.stepLanes(&ls, n)
		window += steps * ls.live
		for k := range ls.in[:ls.live] {
			ls.in[k] = ls.in[k][steps:]
			if t.prefilter && ls.cur[k] == c.restOff {
				skip := t.skipDead(ls.in[k])
				ls.in[k], window = ls.in[k][skip:], window+skip
			}
		}
		if t.adaptive && window >= automata.CancelCheckInterval {
			if t.adapt(window) {
				err = t.demoteLanes(ctx, &ls)
			}
			window = 0
		}
	}
	for ; ls.next < len(inputs) && err == nil; ls.next++ {
		s := ls.next
		outs[s], err = t.runLazy(ctx, inputs[s], outs[s], -1, 0)
	}
	return err
}

// refill retires the lanes whose streams have ended and starts the group's
// next nonempty streams in their place (an empty stream has no reports).
// Interning a start state may evict, so every lane's state is pinned first.
func (t *tier) refill(ls *laneSet) {
	for k := ls.live - 1; k >= 0; k-- { // downward, so the lane swapped into k is already checked
		if len(ls.in[k]) == 0 {
			ls.live--
			ls.stream[k], ls.in[k], ls.cur[k] = ls.stream[ls.live], ls.in[ls.live], ls.cur[ls.live]
		}
	}
	for ; ls.live < Lanes && ls.next < len(ls.inputs); ls.next++ {
		if in := ls.inputs[ls.next]; len(in) > 0 {
			ls.pin(t.cache)
			ls.stream[ls.live], ls.in[ls.live], ls.cur[ls.live] = ls.next, in, t.startState()
			ls.live++
		}
	}
	for k := ls.live; k < Lanes; k++ {
		ls.in[k], ls.cur[k] = ls.in[0], ls.cur[0]
	}
}

// stepLanes walks every lane n bytes in lockstep: per step four group
// lookups, four independent row loads, and one test that sends the step to
// resolve if any lane's cell is unfilled, reports or enters the rest state.
// It returns the steps taken, fewer than n when a lane entered the rest
// state with the prefilter on, so the caller can skip that lane's dead
// bytes. The inputs are cut to n so the loop indexes without bounds checks.
func (t *tier) stepLanes(ls *laneSet, n int) int {
	rows, gof := t.cache.rows, &t.prog.groupOf
	s0 := ls.in[0][:n]
	s1, s2, s3 := ls.in[1][:len(s0)], ls.in[2][:len(s0)], ls.in[3][:len(s0)]
	c0, c1, c2, c3 := ls.cur[0], ls.cur[1], ls.cur[2], ls.cur[3]
	for i := range s0 {
		v0 := rows[c0+int32(gof[s0[i]])]
		v1 := rows[c1+int32(gof[s1[i]])]
		v2 := rows[c2+int32(gof[s2[i]])]
		v3 := rows[c3+int32(gof[s3[i]])]
		if uint32(v0|v1|v2|v3) >= uint32(cellRest) {
			ls.cur = [Lanes]int32{c0, c1, c2, c3}
			if t.resolve(ls, i) {
				return i + 1
			}
			rows = t.cache.rows
			c0, c1, c2, c3 = ls.cur[0], ls.cur[1], ls.cur[2], ls.cur[3]
			continue
		}
		c0, c1, c2, c3 = v0, v1, v2, v3
	}
	ls.cur = [Lanes]int32{c0, c1, c2, c3}
	return n
}

// resolve takes step i of every live lane, one lane at a time: it re-reads
// each lane's cell from the current slab and sends unfilled, reporting and
// rest-entering cells through slowStep. Every lane's
// current state stays pinned while it runs: a miss in one lane may evict a
// state another lane is in or has just stepped into, and the cell the other
// lane loaded then points at a reused slot. It reports whether a lane
// entered the rest state with the prefilter on.
func (t *tier) resolve(ls *laneSet, i int) (rest bool) {
	c := t.cache
	ls.pin(c)
	for k := 0; k < ls.live; k++ {
		s, sym := ls.stream[k], ls.in[k][i]
		v := c.rows[ls.cur[k]+int32(t.prog.groupOf[sym])]
		if uint32(v) >= uint32(cellRest) {
			var r bool
			v, ls.outs[s], r = t.slowStep(ls.cur[k], sym, ls.outs[s], ls.offset(k)+i)
			rest = rest || r
		}
		ls.cur[k], c.pins[k] = v, v+1
	}
	for k := ls.live; k < Lanes; k++ {
		ls.cur[k] = ls.cur[0]
	}
	return rest
}

// demoteLanes hands the live lanes to the bitset walk: each lane's
// configuration is taken before demote releases the cache (the slices keep
// the dropped slab alive, and nothing writes it again), and each lane
// finishes from its configuration.
func (t *tier) demoteLanes(ctx context.Context, ls *laneSet) (err error) {
	var configs [Lanes][]uint64
	for k := range configs[:ls.live] {
		configs[k] = t.cache.config(ls.cur[k] / t.cache.ngroups)
	}
	t.demote()
	for k := 0; k < ls.live && err == nil; k++ {
		s := ls.stream[k]
		ls.outs[s], err = t.runDemoted(ctx, ls.in[k], ls.outs[s], ls.offset(k), configs[k])
	}
	return err
}
