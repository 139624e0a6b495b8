package lazydfa

import (
	"math/bits"
	"slices"
)

// The state cache interns DFA states (NFA configurations) and owns the
// transition table as one contiguous slab of int32 cells, ngroups cells per
// state. A filled cell holds the successor's *row offset* (id × ngroups),
// so the walk's next index is offset + group with no multiply or mask on
// the per-byte dependency chain, and flags the high bits:
//
//	cellUnfilled (-1)      transition not yet materialized (or repaired away)
//	offset | cellReport    stepping this (state, group) emits report codes
//	offset | cellRest      the successor is the prefilter's rest state
//	offset                 plain transition
//
// One unsigned compare, uint32(v) < uint32(cellRest), separates the plain
// transition from all three slow cases. Ids are recovered as offset / ngroups
// only off that path (miss, report lookup, demotion, eviction repair).
//
// With the prefilter on, a cell whose successor is the rest configuration
// also carries cellRest, so entering the rest state leaves the fast path
// through the same compare and the walk can skip dead bytes without
// testing its cursor on every step. A flag the prefilter no longer wants
// (it turned itself off) is dropped the next time the cell is taken.
//
// State metadata lives in slabs: meta holds values, not pointers, the
// configurations share one []uint64 (nwords per slot, overwritten in place
// when a slot is reused), and each new slot's first in-edge records are
// carved from a shared []inEdge. A state's key is its configuration in the
// slab: an open-addressed index of slot ids, probed by the configuration's
// hash and compared word for word in place, finds it. Interning a state
// allocates nothing of its own: the slabs are reserved when the budget
// doubles and the index doubles with the slot count, so what remains is a
// share of that growth and of the in-edge slab.
//
// Capacity pressure is handled per state with a second-chance clock: the
// hand sweeps slots, clearing reference bits, and reuses the first cold
// slot in place. Eviction repairs the victim's in-edges lazily — each
// recorded predecessor cell that still points at the victim's offset is
// reset to cellUnfilled, so the transition recomputes on demand — and bumps
// the slot's generation so stale in-edge records (from an earlier occupant
// of either endpoint) are recognized and skipped.

const (
	cellUnfilled = int32(-1)
	cellReport   = int32(1) << 30
	cellRest     = int32(1) << 29
	cellIDMask   = cellRest - 1 // bounds every row offset: limit × ngroups ≤ cellIDMask
)

// groupCodes is the report-code list of one (state, symbol-group) edge.
// States rarely report on more than a couple of groups, so a small linear
// slice beats a map on both lookup and memory.
type groupCodes struct {
	group int32
	codes []int
}

// inEdge records "rows[from*ngroups+group] pointed at this state when
// from's generation was gen". Eviction follows these records to repair
// predecessors; a generation mismatch means the record is stale.
type inEdge struct {
	from  int32
	gen   uint32
	group int32
}

// state is one cache slot's metadata; its transition row lives in the
// cache's rows slab at [id*ngroups, (id+1)*ngroups) and its configuration
// in the configs slab at [id*nwords, (id+1)*nwords).
type state struct {
	hash    uint64 // of the configuration and first, as the index probes it
	first   bool
	ref     bool   // second-chance reference bit
	gen     uint32 // bumped on eviction; validates inEdge records
	reps    []groupCodes
	inEdges []inEdge
}

// setCodes records codes as the report list for group g, reusing an
// existing entry's storage when the edge is refilled after repair.
func (st *state) setCodes(g int32, codes []int) {
	for i := range st.reps {
		if st.reps[i].group == g {
			st.reps[i].codes = append(st.reps[i].codes[:0], codes...)
			return
		}
	}
	st.reps = append(st.reps, groupCodes{group: g, codes: append([]int(nil), codes...)})
}

// stateCache's meta may grow on intern, so a &meta[id] taken before an
// intern call is stale after it: index again.
type stateCache struct {
	// index is the intern table: open-addressed with linear probing, a
	// power of two at least twice as long as meta, each entry a slot id + 1
	// (0 empty). A state sits at or after its hash's home, with no empty
	// entry between, and release shifts the run after it back so that
	// stays true without tombstones.
	index   []int32
	meta    []state
	rows    []int32
	configs []uint64 // enable words, then packed counter values; nwords per slot
	edges   []inEdge // unused tail of the slab new slots' in-edge lists are carved from
	ngroups int32
	nwords  int

	max       int // current budget (grows adaptively up to limit)
	limit     int // hard cap
	hand      int
	evictions int

	// pins are the states eviction must skip: every live lane's current
	// state, and verify's two cursors'. Each holds its row offset + 1, so
	// the zero value pins nothing and a walk pins without a division. More
	// than one lane walks only when limit exceeds Lanes, so a victim always
	// exists.
	pins [Lanes]int32

	// restOff is the row offset where the prefilter's rest configuration
	// (rest, never a first-symbol state) currently lives (-1 when not
	// interned or evicted), so the hot loop can compare offsets instead of
	// configurations.
	rest    []uint64
	restOff int32
}

func newStateCache(p *program, max, limit int) *stateCache {
	return &stateCache{
		index:   make([]int32, 16),
		ngroups: int32(p.ngroups),
		nwords:  p.nwords,
		max:     max,
		limit:   limit,
		rest:    p.rest,
		restOff: -1,
	}
}

// config returns slot id's configuration, in place in the slab.
func (c *stateCache) config(id int32) []uint64 {
	lo, hi := int(id)*c.nwords, int(id+1)*c.nwords
	return c.configs[lo:hi:hi]
}

// hashConfig folds each word into the hash with a multiply and a rotate,
// then finishes with murmur3's fmix64, so a difference in any bit of any
// word reaches the low bits the index masks with.
func hashConfig(config []uint64, first bool) uint64 {
	h := uint64(len(config))
	if first {
		h = ^h
	}
	for _, w := range config {
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 29)
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// find returns the index position holding the configuration, or the empty
// position where it would go.
func (c *stateCache) find(h uint64, config []uint64, first bool) int {
	mask := len(c.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := c.index[i]
		if e == 0 {
			return i
		}
		if st := &c.meta[e-1]; st.hash == h && st.first == first && slices.Equal(c.config(e-1), config) {
			return i
		}
	}
}

// reindex doubles the index and reinserts every live slot by the hash
// recorded in its state.
func (c *stateCache) reindex() {
	c.index = make([]int32, 2*len(c.index))
	for id := range c.meta {
		c.index[c.find(c.meta[id].hash, c.config(int32(id)), c.meta[id].first)] = int32(id) + 1
	}
}

// intern returns the id of the configuration, copying it into a slot when
// new. A full cache evicts one cold state, never one in pins. Always
// succeeds.
func (c *stateCache) intern(config []uint64, first bool) int32 {
	h := hashConfig(config, first)
	if e := c.index[c.find(h, config, first)]; e != 0 {
		c.meta[e-1].ref = true
		return e - 1
	}
	if len(c.meta) >= c.max && c.max < c.limit {
		// Demand-driven budget growth: slots materialize organically, so
		// doubling the budget costs nothing until states actually intern,
		// and growing instead of evicting below the byte cap keeps slot
		// assignment in discovery order — eviction churn during a growth
		// phase would scatter hot states across the row slab and degrade
		// the warm walk's locality measurably. The slabs are reserved to
		// the new budget.
		c.max = min(2*c.max, c.limit)
		c.meta = slices.Grow(c.meta, c.max-len(c.meta))
		c.configs = slices.Grow(c.configs, c.max*c.nwords-len(c.configs))
		c.rows = slices.Grow(c.rows, c.max*int(c.ngroups)-len(c.rows))
	}
	var id int32
	if len(c.meta) < c.max {
		if 2*len(c.meta) >= len(c.index) { // before the new slot exists: it has no hash yet
			c.reindex()
		}
		id = int32(len(c.meta))
		if cap(c.edges)-len(c.edges) < 4 {
			c.edges = make([]inEdge, 0, 4*max(len(c.meta), 16))
		}
		n := len(c.edges)
		c.edges = c.edges[:n+4]
		c.meta = append(c.meta, state{inEdges: c.edges[n : n : n+4]}) // a fifth record reallocates this slot's list only
		c.configs = append(c.configs, config...)
		lo := len(c.rows)
		c.rows = slices.Grow(c.rows, int(c.ngroups))[:lo+int(c.ngroups)]
		for i := lo; i < len(c.rows); i++ {
			c.rows[i] = cellUnfilled
		}
	} else {
		id = c.evict()
		copy(c.config(id), config)
	}
	st := &c.meta[id]
	st.hash = h
	st.first = first
	st.ref = true
	st.reps = st.reps[:0]
	c.index[c.find(h, config, first)] = id + 1
	if c.rest != nil && !first && slices.Equal(config, c.rest) {
		c.restOff = id * c.ngroups
	}
	return id
}

// evict runs the clock hand to a victim, releases it, and returns its slot
// for reuse. States with the reference bit get a second chance (the bit is
// cleared); after two full sweeps the next unpinned slot is taken
// unconditionally, which bounds the scan when everything is hot.
func (c *stateCache) evict() int32 {
	for scanned := 0; ; scanned++ {
		if c.hand >= len(c.meta) {
			c.hand = 0
		}
		id := int32(c.hand)
		st := &c.meta[c.hand]
		c.hand++
		if slices.Contains(c.pins[:], id*c.ngroups+1) {
			continue
		}
		if st.ref && scanned < 2*len(c.meta) {
			st.ref = false
			continue
		}
		c.release(id, st)
		return id
	}
}

// release detaches the victim: it leaves the index, every live in-edge
// cell pointing at its row offset is reset to cellUnfilled, its own row is
// cleared, and its generation is bumped so surviving records naming this
// slot are recognized as stale.
//
// The index entry is deleted by backward shift: each later entry of its
// probe run moves into the hole unless the hole lies before that entry's
// home, and the run ends at the first empty entry.
func (c *stateCache) release(id int32, st *state) {
	mask := len(c.index) - 1
	hole := c.find(st.hash, c.config(id), st.first)
	for i := (hole + 1) & mask; c.index[i] != 0; i = (i + 1) & mask {
		if home := int(c.meta[c.index[i]-1].hash) & mask; (i-home)&mask >= (i-hole)&mask {
			c.index[hole], hole = c.index[i], i
		}
	}
	c.index[hole] = 0
	off := id * c.ngroups
	if off == c.restOff {
		c.restOff = -1
	}
	for _, e := range st.inEdges {
		if c.meta[e.from].gen != e.gen {
			continue
		}
		idx := e.from*c.ngroups + e.group
		if v := c.rows[idx]; v >= 0 && v&cellIDMask == off {
			c.rows[idx] = cellUnfilled
		}
	}
	st.inEdges = st.inEdges[:0]
	row := c.rows[off : off+c.ngroups]
	for i := range row {
		row[i] = cellUnfilled
	}
	st.gen++
	c.evictions++
}

// noteInEdge records that from's row now points at succ (both ids). When
// the record list fills its capacity past a threshold, stale records are
// compacted in place before growing, bounding the list at the live
// in-degree.
func (c *stateCache) noteInEdge(succ, from, group int32) {
	st := &c.meta[succ]
	if len(st.inEdges) >= 32 && len(st.inEdges) == cap(st.inEdges) {
		kept := st.inEdges[:0]
		for _, e := range st.inEdges {
			if c.meta[e.from].gen == e.gen {
				kept = append(kept, e)
			}
		}
		st.inEdges = kept
	}
	st.inEdges = append(st.inEdges, inEdge{from: from, gen: c.meta[from].gen, group: group})
}

// releaseAll drops the cache's storage wholesale. Used by demotion, which
// hands the memory back before switching to the bitset walk; eviction
// counters survive for telemetry.
func (c *stateCache) releaseAll() {
	c.index = nil
	c.meta = nil
	c.rows = nil
	c.configs = nil
	c.edges = nil
	c.restOff = -1
	c.hand = 0
}
