package automata

import "slices"

// Component splitting for CPU execution: a network's weakly-connected
// components are independent automata that never exchange activations, so a
// CPU backend may execute each with whatever engine fits it best. In
// particular, components free of counters and gates determinize over enable
// vectors alone, while components containing special elements determinize
// over enable vectors and counter values together — a product that can grow
// large, so it is kept out of the pure components' state space.

// SplitSpecials partitions the topology's weakly-connected components into a
// counter-free sub-topology (the union of components containing only STEs)
// and a special sub-topology (the union of components containing at least
// one counter or gate). Components with no start STE can never activate —
// every enable ultimately originates at a start STE within the same
// component — and are dropped. Either result may be nil when empty.
//
// Element names, classes, start kinds, report flags, and report codes are
// preserved; IDs are renumbered densely within each sub-topology.
func SplitSpecials(t *Topology) (pure, special *Topology) {
	uf := newUnionFind(t.Len())
	for id := 0; id < t.Len(); id++ {
		for _, out := range t.Outs(ElementID(id)) {
			uf.union(id, int(out.Node))
		}
	}
	hasSpecial, hasStart := make([]bool, t.Len()), make([]bool, t.Len()) // by root
	for i := 0; i < t.Len(); i++ {
		root := uf.find(i)
		if t.kind[i] != KindSTE {
			hasSpecial[root] = true
		} else if t.start[i] != StartNone {
			hasStart[root] = true
		}
	}
	keepPure, keepSpecial := make([]bool, t.Len()), make([]bool, t.Len())
	for i := range keepPure {
		if root := uf.find(i); hasStart[root] {
			keepPure[i], keepSpecial[i] = !hasSpecial[root], hasSpecial[root]
		}
	}
	return extract(t, t.Name+"-pure", keepPure), extract(t, t.Name+"-special", keepSpecial)
}

// extract returns the sub-topology of the elements selected by keep, ids
// renumbered densely, cut straight from t's arrays: a weakly-connected
// selection never has edges crossing the cut, and a union of t's
// components is valid because t is. In-edges come out in source order and
// the specials in t's combinational order, which is the order the
// selection's own network would freeze to. Returns nil when no element is
// kept.
func extract(t *Topology, name string, keep []bool) *Topology {
	remap, ids, nedges := make([]int32, t.Len()), make([]int32, 0, t.Len()), 0
	for i, k := range keep {
		if remap[i] = -1; k {
			remap[i], ids, nedges = int32(len(ids)), append(ids, int32(i)), nedges+len(t.Outs(ElementID(i)))
		}
	}
	if len(ids) == 0 {
		return nil
	}
	s := &Topology{Name: name, kind: pick(t.kind, ids), class: pick(t.class, ids), start: pick(t.start, ids),
		target: pick(t.target, ids), latch: pick(t.latch, ids), op: pick(t.op, ids), report: pick(t.report, ids),
		code: pick(t.code, ids), name: pick(t.name, ids), origin: pick(t.origin, ids),
		outEdges: make([]TopoEdge, 0, nedges), outOff: make([]int32, 1, len(ids)+1), inOff: make([]int32, len(ids)+1),
		divisor: 1}
	for _, i := range ids {
		for _, e := range t.Outs(ElementID(i)) {
			s.outEdges = append(s.outEdges, TopoEdge{Node: remap[e.Node], Port: e.Port})
			s.inOff[remap[e.Node]+1]++
			if t.kind[i] == KindCounter && t.kind[e.Node] == KindGate {
				s.divisor = 2
			}
		}
		s.outOff = append(s.outOff, int32(len(s.outEdges)))
		s.stats.count(t.kind[i], t.start[i], t.report[i])
	}
	s.stats.Edges = len(s.outEdges)
	for j := range ids {
		s.inOff[j+1] += s.inOff[j]
	}
	s.inEdges = make([]TopoEdge, len(s.outEdges))
	fill := slices.Clone(s.inOff)
	for j := range ids {
		for _, e := range s.Outs(ElementID(j)) {
			s.inEdges[fill[e.Node]], fill[e.Node] = TopoEdge{Node: int32(j), Port: e.Port}, fill[e.Node]+1
		}
	}
	for _, id := range t.specials {
		if remap[id] >= 0 {
			s.specials = append(s.specials, ElementID(remap[id]))
		}
	}
	return s
}

// pick returns src's entries at ids, in order.
func pick[T any](src []T, ids []int32) []T {
	out := make([]T, len(ids))
	for j, i := range ids {
		out[j] = src[i]
	}
	return out
}

// unionFind is a standard disjoint-set forest with path halving and union
// by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
