package place

// Macro stamping: the compile-at-scale fast path. Rule packs and pattern
// banks are overwhelmingly many instances of one structural shape with
// different literals (the RapidWright pre-implement-then-stamp insight
// applied to the AP fabric). Instead of feeding every instance through
// first-fit packing and iterative refinement, the shape is placed once,
// the resulting row-granular footprint is cached under a canonical
// literal-blind hash, and every further instance is stamped into the next
// free row range of the current stamp block. A Stamper shared across
// designs (e.g. by a serving process compiling a manifest of rule-family
// variants) reuses footprints across compiles.

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/ap"
	"repro/internal/automata"
)

// ShapeHash is the canonical placement-shape fingerprint of a connected
// component. It covers exactly the attributes placement depends on —
// element kinds, start kinds, report flags, and the edge structure with
// ports (destinations canonicalized to the component's depth-first rank,
// edges outside the component marked external) — and deliberately
// excludes the literal content: character classes, counter targets and
// latch modes, gate operations, report codes, and names. Two components
// with equal hashes therefore place to identical footprints even when
// they match entirely different patterns, which is what lets a pattern
// bank of distinct literals compile at stamping speed.
type ShapeHash [16]byte

// ShapeOf computes the canonical shape hash of a component, given in the
// deterministic depth-first order produced by Components.
func ShapeOf(top *automata.Topology, comp []automata.ElementID) ShapeHash {
	var s shapeScratch
	return shapeOf(top, comp, &s)
}

// shapeScratch holds the reusable buffers of the hashing hot path: a
// partitioner hashes every component of every compile, so the encoding
// buffer, edge scratch, and rank table are allocated once per placement
// instead of once per component.
type shapeScratch struct {
	buf   []byte
	edges []uint64
	rank  []int32 // rank+1 by element id, 0 = external; cleared after use
}

// shapeOf is ShapeOf with caller-owned scratch. The digest is taken in
// one shot over a flat encoding: component length, then per element one
// packed attribute byte {kind, start, report}, the edge count, and the
// sorted edge words. Edge words pack the destination's component rank
// (rank+1, 0 = external — only single-block-sized components are hashed,
// so ranks fit 16 bits) with the destination port.
func shapeOf(top *automata.Topology, comp []automata.ElementID, s *shapeScratch) ShapeHash {
	if len(s.rank) < top.Len() {
		s.rank = make([]int32, top.Len())
	}
	for i, id := range comp {
		s.rank[id] = int32(i) + 1
	}
	buf := s.buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(comp)))
	edges := s.edges
	for _, id := range comp {
		report := byte(0)
		if top.Reports(id) {
			report = 1
		}
		buf = append(buf, byte(top.Kind(id))<<4|byte(top.Start(id))<<1|report)
		edges = edges[:0]
		for _, e := range top.Outs(id) {
			// External destinations (broadcast sources excluded from the
			// component) still cost routing, so they are hashed under the
			// sentinel rank 0; edge order is canonicalized by sorting.
			r := uint32(s.rank[automata.ElementID(e.Node)])
			edges = append(edges, uint64(r)<<8|uint64(byte(e.Port)))
		}
		sortU64(edges)
		if len(edges) < 255 {
			buf = append(buf, byte(len(edges)))
		} else {
			// Overflow marker keeps the encoding prefix-free for the rare
			// huge fan-out element.
			buf = append(buf, 255)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
		}
		for _, ev := range edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ev))
		}
	}
	for _, id := range comp {
		s.rank[id] = 0
	}
	s.buf, s.edges = buf, edges
	sum := sha256.Sum256(buf)
	var out ShapeHash
	copy(out[:], sum[:16])
	return out
}

// rankIndex maps element ids to their component rank. An ascending run of
// ids (a whole network laid out in id order) needs no table; components
// produced by the DFS usually occupy a dense id range, where a slice
// lookup beats a map by an order of magnitude; sparse components fall back
// to a map.
type rankIndex struct {
	base  automata.ElementID
	run   int     // > 0: the ids are base, base+1, …, base+run-1
	dense []int32 // rank+1, 0 = absent
	m     map[automata.ElementID]int32
}

func newRankIndex(comp []automata.ElementID) rankIndex {
	if len(comp) == 0 {
		return rankIndex{}
	}
	lo, hi := comp[0], comp[0]
	run := true
	for i, id := range comp {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
		run = run && id == comp[0]+automata.ElementID(i)
	}
	if run {
		return rankIndex{base: lo, run: len(comp)}
	}
	span := int(hi-lo) + 1
	if span <= 4*len(comp)+64 {
		dense := make([]int32, span)
		for i, id := range comp {
			dense[id-lo] = int32(i) + 1
		}
		return rankIndex{base: lo, dense: dense}
	}
	m := make(map[automata.ElementID]int32, len(comp))
	for i, id := range comp {
		m[id] = int32(i)
	}
	return rankIndex{m: m}
}

// of returns the element's component rank, or -1 for external elements.
func (r rankIndex) of(id automata.ElementID) int32 {
	if r.run > 0 {
		if id < r.base || int(id-r.base) >= r.run {
			return -1
		}
		return int32(id - r.base)
	}
	if r.dense != nil {
		if id < r.base || int(id-r.base) >= len(r.dense) {
			return -1
		}
		return r.dense[id-r.base] - 1
	}
	if rr, ok := r.m[id]; ok {
		return rr
	}
	return -1
}

// sortU64 is an allocation-free insertion sort: edge lists are almost
// always one or two entries, where sort.Slice's closure overhead costs
// more than the sort itself.
func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Footprint is the placed shape of a single-block component: its row
// span, resource usage, block-routing demand, and the relative row of
// each element, indexed by the element's rank in the component's
// depth-first order. A footprint is position-independent — stamping
// translates it to any row offset in any block.
type Footprint struct {
	// Rows is the whole-row span the shape occupies (stamping is
	// row-granular, like the paper's pre-compiled flow).
	Rows int
	// Usage is the shape's element demand.
	Usage ap.BlockUsage
	// BRLines is the number of distinct source signals that cross rows
	// in this layout — the block-routing budget one stamped instance
	// consumes.
	BRLines int
	// RowOf is the relative row of each element (by component rank).
	RowOf []int
}

// FootprintOf lays the component out with the row model every flow uses
// (rowLayout), its specials dealt over its own rows, and returns its
// footprint. The result depends only on the component's shape (see
// ShapeHash), never on its literals.
func FootprintOf(top *automata.Topology, comp []automata.ElementID, res ap.Resources) *Footprint {
	var u ap.BlockUsage
	for _, id := range comp {
		u.Add(ap.UsageOfKind(top.Kind(id)))
	}
	rows := rowsFor(u.STEs, res)
	rowOf, lines := rowLayout(top, comp, rows, res)
	return &Footprint{Rows: rows, Usage: u, BRLines: lines, RowOf: rowOf}
}

// Stamper is the cross-design footprint cache keyed by canonical shape
// hash. A single Stamper may be shared by concurrent placements — a
// serving process gives every compile the same one so a manifest full of
// variants of one rule family pays for each shape's placement once.
// The zero value is not usable; construct with NewStamper.
type Stamper struct {
	mu     sync.Mutex
	fps    map[ShapeHash]*Footprint
	hits   uint64
	misses uint64
}

// NewStamper returns an empty footprint cache.
func NewStamper() *Stamper {
	return &Stamper{fps: make(map[ShapeHash]*Footprint)}
}

// has reports whether the shape's footprint is already cached (a
// cross-design hit makes even a design-unique shape stampable).
func (s *Stamper) has(h ShapeHash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fps[h] != nil
}

// footprint returns the cached footprint for h, computing and caching it
// from the representative component on a miss. Footprints are pure
// functions of the shape, so concurrent placements racing on the same
// hash converge on identical entries.
func (s *Stamper) footprint(h ShapeHash, top *automata.Topology, comp []automata.ElementID, res ap.Resources) *Footprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fp := s.fps[h]; fp != nil {
		s.hits++
		return fp
	}
	fp := FootprintOf(top, comp, res)
	s.fps[h] = fp
	s.misses++
	return fp
}

// Shapes returns the number of distinct cached shapes.
func (s *Stamper) Shapes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fps)
}

// Hits returns the number of footprint lookups served from the cache.
func (s *Stamper) Hits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses returns the number of footprints computed and cached.
func (s *Stamper) Misses() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}
