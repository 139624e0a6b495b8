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

// The segment walk: a lone stream of at least Lanes × CancelCheckInterval
// bytes is cut into Lanes equal segments per span (Split), walked as groups
// of Lanes. Only segment 0 starts where the stream does; the others start from a guess, the start
// state, as if the stream began at their cut. The guess reaches the true
// configuration within a few dozen bytes on every paper design, so most of
// each lane's walk stands, and verify finds where.
const (
	// specReach is how far into a segment the true walk steps beside the
	// replayed guess before the cut counts as missed and the true walk
	// finishes the segment itself; 15× the worst convergence measured.
	specReach = 1 << 10
	// specMissLimit is how many missed segments in a row stop a tier
	// speculating; like the prefilter's verdict it is sticky.
	specMissLimit = 16
)

// laneSet is the walk over a group of one or more streams. Lanes [0, live)
// each run one stream: its index in the group, its unread input and the
// lane's cursor (a row offset). While lanes step four wide, idle lanes
// mirror lane 0, so the step needs no per-lane test. Under the segment
// walk stream k is the prefix of the stream that ends where segment k
// does, so offsets are the stream's, and ends holds each segment's end
// configuration, nwords apiece. Each matcher owns one, which its walks
// reuse.
type laneSet struct {
	inputs [][]byte
	outs   [][]automata.Report
	ends   []uint64 // nil for a group of streams
	stream [Lanes]int
	in     [Lanes][]byte
	cur    [Lanes]int32
	live   int
	next   int // the group's next stream to start
}

// reset readies ls to walk the streams of inputs from their starts into
// outs, keeping segment ends in ends (nil for a group of streams). It
// copies the stream headers, so a caller's group stays on its stack.
func (ls *laneSet) reset(inputs [][]byte, outs [][]automata.Report, ends []uint64) *laneSet {
	ls.inputs, ls.outs, ls.ends, ls.live, ls.next = append(ls.inputs[:0], inputs...), outs, ends, 0, 0
	return ls
}

// release drops every walk's references to the caller's streams.
func (ls *laneSet) release() {
	clear(ls.inputs[:cap(ls.inputs)])
	ls.in = [Lanes][]byte{}
}

// offset is where lane k's unread input starts in its stream.
func (ls *laneSet) offset(k int) int { return len(ls.inputs[ls.stream[k]]) - len(ls.in[k]) }

// pin makes every live lane's current state one eviction skips. Idle
// lanes pin nothing: between streams their mirrored cursors are stale.
func (ls *laneSet) pin(c *stateCache) {
	c.pins = [Lanes]int32{}
	for k, cur := range ls.cur[:ls.live] {
		c.pins[k] = cur + 1
	}
}

// keepEnd copies lane k's configuration into its segment's end under the
// segment walk: a retired lane is unpinned, so its row offset may be
// evicted and reused before verify reads it.
func (ls *laneSet) keepEnd(c *stateCache, k int) {
	if ls.ends != nil {
		s := ls.stream[k] * c.nwords
		copy(ls.ends[s:s+c.nwords], c.config(ls.cur[k]/c.ngroups))
	}
}

// walk runs every stream of ls through the tier, appending stream s's
// reports to ls.outs[s]: up to Lanes streams interleaved, and when one ends
// the group's next stream takes its lane. A lone live lane steps on its
// own (stepOne), and so does every stream when the cache is too small to
// pin every lane and still evict. Per round of steps the context is
// checked and each lane at the rest state skips its dead bytes; adapt
// counts the bytes of all lanes, once a window reaches a chunk and once
// more when the walk ends, and when it says the tier should demote, or the
// tier already has, demoteLanes finishes the walk.
func (t *tier) walk(ctx context.Context, ls *laneSet) error {
	c, window := t.cache, 0
	for !t.demoted {
		if t.refill(ls); ls.live == 0 {
			if !t.adaptive || window == 0 || !t.adapt(window) {
				return nil
			}
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		n := automata.CancelCheckInterval
		for _, in := range ls.in[:ls.live] {
			n = min(n, len(in))
		}
		steps := 0
		if ls.live == 1 {
			steps = t.stepOne(ls, n)
		} else {
			steps = t.stepLanes(ls, n)
		}
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
				break
			}
			window = 0
		}
	}
	return t.demoteLanes(ctx, ls)
}

// segments reports whether the tier walks a lone long stream as segments.
func (t *tier) segments() bool { return !t.demoted && t.speculate && t.cache.limit > Lanes }

// walkSegments walks segments lo to lo+Lanes of the stream segs cuts into
// len(segs.inputs) equal segments as ls's lanes, each from the start state
// as if the stream began at its cut, keeping each one's reports and end
// configuration in segs. A demotion drops the walk.
func (t *tier) walkSegments(ctx context.Context, ls, segs *laneSet, lo int) error {
	start, input, n, w := t.startState(), segs.inputs[len(segs.inputs)-1], len(segs.inputs), t.prog.nwords
	ls.reset(segs.inputs[lo:lo+Lanes], segs.outs[lo:lo+Lanes], segs.ends[lo*w:(lo+Lanes)*w])
	ls.live, ls.next = Lanes, Lanes
	for k := range Lanes {
		ls.stream[k], ls.in[k], ls.cur[k] = k, input[(lo+k)*len(input)/n:len(ls.inputs[k])], start
		ls.outs[k] = ls.outs[k][:0]
	}
	return t.walk(ctx, ls)
}

// joinSpans appends the tier's reports for a split stream to outs[0]:
// segment 0's walk, the truth, and then every cut verified in order, on
// ls's lanes. A demotion runs the stream on the bitset walk from offset 0
// instead.
func (t *tier) joinSpans(ctx context.Context, segs, ls *laneSet, outs [][]automata.Report, reach int) (err error) {
	mid := len(outs[0])
	outs[0] = append(outs[0], segs.outs[0]...)
	for k := 1; k < len(segs.inputs) && err == nil && !t.demoted; k++ {
		err = t.verify(ctx, segs, ls, k, outs, reach)
	}
	if t.demoted {
		outs[0], err = t.runDemoted(ctx, segs.inputs[len(segs.inputs)-1], outs[0][:mid], 0, nil)
	}
	return err
}

// verify checks cut k. The true configuration there, segment k-1's end,
// walks beside a replay of lane k's guess, both cursors pinned: two pinned
// states share a slot only if they are one configuration, so equal row
// offsets prove the walks met. Meeting after byte i, outs[0] takes the
// true walk's reports up to i and lane k's after it, and lane k's end is
// the truth at the next cut. Missing within reach bytes, the true walk
// finishes the segment as ls's one lane, and its end is: the lane's
// stream is segment k's prefix and its end is segment k's slot. A demotion
// there leaves the stream to joinSpans.
func (t *tier) verify(ctx context.Context, segs, ls *laneSet, k int, outs [][]automata.Report, reach int) error {
	c := t.cache
	cut, w := len(segs.inputs[k-1]), c.nwords
	seg := segs.inputs[k][cut:]
	n := min(reach, len(seg))
	truth := c.intern(segs.ends[(k-1)*w:k*w], false) * c.ngroups
	c.pins = [Lanes]int32{truth + 1}
	guess := t.startState()
	c.pins[1] = guess + 1
	for i, sym := range seg[:n] {
		truth, outs[0], _ = t.slowStep(truth, sym, outs[0], cut+i)
		c.pins[0] = truth + 1
		guess, t.replayed, _ = t.slowStep(guess, sym, t.replayed[:0], cut+i)
		c.pins[1] = guess + 1
		if truth == guess {
			t.specHits, t.missRun = t.specHits+1, 0
			lane := segs.outs[k]
			for len(lane) > 0 && lane[0].Offset <= cut+i {
				lane = lane[1:]
			}
			outs[0] = append(outs[0], lane...)
			return nil
		}
	}
	t.specMisses++
	if t.missRun++; t.missRun >= specMissLimit {
		t.speculate = false
	}
	ls.reset(segs.inputs[k:k+1], outs[:1], segs.ends[k*w:(k+1)*w])
	ls.stream[0], ls.in[0], ls.cur[0], ls.live, ls.next = 0, seg[n:], truth, 1, 1
	return t.walk(ctx, ls)
}

// refill retires the lanes whose streams have ended, keeping a segment's
// end, and starts the group's next nonempty streams in their place (an
// empty stream has no reports), one lane at most in a cache of Lanes states
// or fewer. Interning a start state may evict, so every live lane's state
// is pinned first.
func (t *tier) refill(ls *laneSet) {
	width := Lanes
	if t.cache.limit <= Lanes {
		width = 1
	}
	for k := ls.live - 1; k >= 0; k-- { // downward, so the lane swapped into k is already checked
		if len(ls.in[k]) == 0 {
			ls.keepEnd(t.cache, k)
			ls.live--
			ls.stream[k], ls.in[k], ls.cur[k] = ls.stream[ls.live], ls.in[ls.live], ls.cur[ls.live]
		}
	}
	for ; ls.live < width && ls.next < len(ls.inputs); ls.next++ {
		if in := ls.inputs[ls.next]; len(in) > 0 {
			ls.pin(t.cache)
			ls.stream[ls.live], ls.in[ls.live], ls.cur[ls.live] = ls.next, in, t.startState()
			ls.live++
		}
	}
}

// stepLanes walks every lane n bytes in lockstep, the idle lanes mirroring
// lane 0: per step four group
// lookups, four independent row loads, and one test that sends the step to
// resolve if any lane's cell is unfilled, reports or enters the rest state.
// It returns the steps taken, fewer than n when a lane entered the rest
// state with the prefilter on, so the caller can skip that lane's dead
// bytes. The inputs are cut to n so the loop indexes without bounds checks.
func (t *tier) stepLanes(ls *laneSet, n int) int {
	for k := ls.live; k < Lanes; k++ {
		ls.in[k], ls.cur[k] = ls.in[0], ls.cur[0]
	}
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

// stepOne is stepLanes for a lone live lane: one load chain, and a slow
// step goes straight to slowStep with exactly the lane's own state pinned.
// The cursor is a row offset, so a plain step is one load, one add and one
// unsigned compare, which sends unfilled, reporting and rest-entering cells
// off the fast path.
func (t *tier) stepOne(ls *laneSet, n int) (i int) {
	c, gof := t.cache, &t.prog.groupOf
	rows, s, cur := c.rows, ls.in[0][:n], ls.cur[0]
	st, base := ls.stream[0], ls.offset(0)
	out := ls.outs[st]
	for ; i < len(s); i++ {
		v := rows[cur+int32(gof[s[i]])]
		if uint32(v) >= uint32(cellRest) {
			var rest bool
			c.pins = [Lanes]int32{cur + 1} // a miss must not evict the state the walk is in
			if v, out, rest = t.slowStep(cur, s[i], out, base+i); rest {
				cur, i = v, i+1
				break
			}
			rows = c.rows
		}
		cur = v
	}
	ls.cur[0], ls.outs[st] = cur, out
	return i
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

// demoteLanes demotes the tier, unless it already has, and hands the walk
// to the bitset walk: each live lane's configuration is taken before
// demote releases the cache (the slices keep the dropped slab alive, and
// nothing writes it again), each lane finishes from its configuration, and
// the streams not yet started run from the start. A segment walk is
// dropped instead, and joinSpans walks its stream on the bitset walk.
func (t *tier) demoteLanes(ctx context.Context, ls *laneSet) (err error) {
	var configs [Lanes][]uint64
	for k := range configs[:ls.live] {
		configs[k] = t.cache.config(ls.cur[k] / t.cache.ngroups)
	}
	if !t.demoted {
		t.demote()
	}
	if ls.ends != nil {
		return nil
	}
	for k := 0; k < ls.live && err == nil; k++ {
		s := ls.stream[k]
		ls.outs[s], err = t.runDemoted(ctx, ls.in[k], ls.outs[s], ls.offset(k), configs[k])
	}
	for ; ls.next < len(ls.inputs) && err == nil; ls.next++ {
		ls.outs[ls.next], err = t.runDemoted(ctx, ls.inputs[ls.next], ls.outs[ls.next], 0, nil)
	}
	return err
}

// runDemoted finishes a stream on the tier's bitset simulator — the same
// kernel the nfa-bitset tier runs. It serves a demoted tier's whole runs
// (config == nil) and the mid-stream hand-off (config = the configuration
// at the demotion point, counter values included; base = bytes already
// consumed). The simulator reports per element, so its run is sorted and
// deduplicated; every report it appends lies past the lazy walk's.
func (t *tier) runDemoted(ctx context.Context, input []byte, out []automata.Report, base int, config []uint64) ([]automata.Report, error) {
	if t.sim == nil {
		t.sim = t.prog.k.NewFastSimulator()
	}
	t.sim.Seed(config, base)
	raw, err := t.sim.Feed(ctx, input)
	start := len(out)
	out = append(out, raw...)
	return out[:start+len(automata.Canonical(out[start:]))], err
}
