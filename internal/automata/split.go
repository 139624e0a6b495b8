package automata

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
	hasSpecial := map[int]bool{}
	hasStart := map[int]bool{}
	for i := 0; i < t.Len(); i++ {
		root := uf.find(i)
		if t.Kind(ElementID(i)) != KindSTE {
			hasSpecial[root] = true
		} else if t.Start(ElementID(i)) != StartNone {
			hasStart[root] = true
		}
	}
	keepPure := func(i int) bool {
		root := uf.find(i)
		return !hasSpecial[root] && hasStart[root]
	}
	keepSpecial := func(i int) bool {
		root := uf.find(i)
		return hasSpecial[root] && hasStart[root]
	}
	return extract(t, t.Name+"-pure", keepPure), extract(t, t.Name+"-special", keepSpecial)
}

// extract builds the frozen sub-topology of elements selected by keep,
// remapping IDs densely via a throwaway builder Network. Edges between kept
// elements are preserved; a weakly-connected selection never has edges
// crossing the cut. Returns nil when no element is kept.
func extract(t *Topology, name string, keep func(int) bool) *Topology {
	remap := make([]ElementID, t.Len())
	for i := range remap {
		remap[i] = NoElement
	}
	out := NewNetwork(name)
	for i := 0; i < t.Len(); i++ {
		if !keep(i) {
			continue
		}
		id := ElementID(i)
		remap[i] = out.add(Element{
			Name:       t.NameOf(id),
			Kind:       t.Kind(id),
			Class:      t.Class(id),
			Start:      t.Start(id),
			Target:     t.Target(id),
			Latch:      t.Latch(id),
			Op:         t.Op(id),
			Report:     t.Reports(id),
			ReportCode: t.ReportCode(id),
			Origin:     t.Origin(id),
		})
	}
	if out.Len() == 0 {
		return nil
	}
	out.link(func(edge func(from, to ElementID, port Port)) {
		for i := 0; i < t.Len(); i++ {
			for _, e := range t.Outs(ElementID(i)) {
				if from, to := remap[i], remap[e.Node]; from != NoElement && to != NoElement {
					edge(from, to, e.Port)
				}
			}
		}
	})
	return out.MustFreeze()
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
