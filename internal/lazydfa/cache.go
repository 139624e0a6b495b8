package lazydfa

import "repro/internal/automata"

// The state cache interns DFA states (NFA configurations) and owns the
// transition table as one contiguous slab of int32 cells, ngroups cells per
// state. A cell packs the successor id with a has-reports flag so the hot
// loop's no-report path is a single load:
//
//	cellUnfilled (-1)  transition not yet materialized (or repaired away)
//	id | cellReport    stepping this (state, group) emits report codes
//	id                 plain transition
//
// Capacity pressure is handled per state with a second-chance clock: the
// hand sweeps slots, clearing reference bits, and reuses the first cold
// slot in place. Eviction repairs the victim's in-edges lazily — each
// recorded predecessor cell that still points at the victim is reset to
// cellUnfilled, so the transition recomputes on demand — and bumps the
// slot's generation so stale in-edge records (from an earlier occupant of
// either endpoint) are recognized and skipped.

const (
	cellUnfilled = int32(-1)
	cellReport   = int32(1) << 30
	cellIDMask   = cellReport - 1
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
// cache's rows slab at [id*ngroups, (id+1)*ngroups).
type state struct {
	key     string
	config  []uint64 // enable words, then packed counter values
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

type stateCache struct {
	ids     map[string]int32
	meta    []*state
	rows    []int32
	ngroups int

	max   int // current budget (grows adaptively up to limit)
	limit int // hard cap

	hand      int
	evictions int

	// restID tracks where the prefilter's rest configuration currently
	// lives (-1 when not interned or evicted), so the hot loop can compare
	// state ids instead of keys.
	restKey string
	restID  int32

	keyBuf []byte
}

func newStateCache(p *program, max, limit int) *stateCache {
	return &stateCache{
		ids:     make(map[string]int32),
		ngroups: p.ngroups,
		max:     max,
		limit:   limit,
		restKey: p.restKey,
		restID:  -1,
	}
}

// intern returns the id of the configuration, copying it into a slot when
// new. A full cache evicts one cold state; pinned (the walker's current
// state, or -1) is never the victim. Always succeeds.
func (c *stateCache) intern(config []uint64, first bool, pinned int32) int32 {
	c.keyBuf = automata.AppendConfigKey(c.keyBuf[:0], config, first)
	if id, ok := c.ids[string(c.keyBuf)]; ok { // no-alloc map probe
		c.meta[id].ref = true
		return id
	}
	var id int32
	var st *state
	if len(c.meta) >= c.max && c.max < c.limit {
		// Demand-driven budget growth: slots materialize organically, so
		// doubling the budget costs nothing until states actually intern,
		// and growing instead of evicting below the byte cap keeps slot
		// assignment in discovery order — eviction churn during a growth
		// phase would scatter hot states across the row slab and degrade
		// the warm walk's locality measurably.
		c.max *= 2
		if c.max > c.limit {
			c.max = c.limit
		}
	}
	if len(c.meta) < c.max {
		id = int32(len(c.meta))
		st = &state{}
		c.meta = append(c.meta, st)
		for i := 0; i < c.ngroups; i++ {
			c.rows = append(c.rows, cellUnfilled)
		}
	} else {
		id = c.evict(pinned)
		st = c.meta[id]
	}
	st.key = string(c.keyBuf)
	st.config = append(st.config[:0], config...)
	st.first = first
	st.ref = true
	st.reps = st.reps[:0]
	c.ids[st.key] = id
	if st.key == c.restKey {
		c.restID = id
	}
	return id
}

// evict runs the clock hand to a victim, releases it, and returns its slot
// for reuse. States with the reference bit get a second chance (the bit is
// cleared); after two full sweeps the next unpinned slot is taken
// unconditionally, which bounds the scan when everything is hot.
func (c *stateCache) evict(pinned int32) int32 {
	for scanned := 0; ; scanned++ {
		if c.hand >= len(c.meta) {
			c.hand = 0
		}
		id := int32(c.hand)
		st := c.meta[c.hand]
		c.hand++
		if id == pinned {
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

// release detaches the victim: its key leaves the intern map, every live
// in-edge cell pointing at it is reset to cellUnfilled, its own row is
// cleared, and its generation is bumped so surviving records naming this
// slot are recognized as stale.
func (c *stateCache) release(id int32, st *state) {
	delete(c.ids, st.key)
	if id == c.restID {
		c.restID = -1
	}
	for _, e := range st.inEdges {
		if c.meta[e.from].gen != e.gen {
			continue
		}
		idx := int(e.from)*c.ngroups + int(e.group)
		if v := c.rows[idx]; v >= 0 && v&cellIDMask == id {
			c.rows[idx] = cellUnfilled
		}
	}
	st.inEdges = st.inEdges[:0]
	row := c.rows[int(id)*c.ngroups : (int(id)+1)*c.ngroups]
	for i := range row {
		row[i] = cellUnfilled
	}
	st.gen++
	c.evictions++
}

// noteInEdge records that from's row now points at succ. When the record
// list fills its capacity past a threshold, stale records are compacted in
// place before growing, bounding the list at the live in-degree.
func (c *stateCache) noteInEdge(succ, from, group int32) {
	st := c.meta[succ]
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
	c.ids = nil
	c.meta = nil
	c.rows = nil
	c.restID = -1
	c.hand = 0
}
