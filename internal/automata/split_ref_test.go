package automata

import (
	"fmt"
	"reflect"
)

// ReferenceSplitSpecials is SplitSpecials through a builder: each side's
// elements and edges are added to a fresh Network, which is then frozen.
// It is the oracle the array-cutting split must reproduce.
func ReferenceSplitSpecials(t *Topology) (pure, special *Topology) {
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
	return refExtract(t, t.Name+"-pure", keepPure), refExtract(t, t.Name+"-special", keepSpecial)
}

func refExtract(t *Topology, name string, keep func(int) bool) *Topology {
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

// SameTopology describes the first difference between a and b in any
// frozen array: attributes, both edge directions with their offsets, the
// specials' order, the stats or the clock divisor. It returns nil when
// the two are identical; two nil topologies are identical.
func SameTopology(a, b *Topology) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one topology is nil: %v, %v", a == nil, b == nil)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"name", a.Name, b.Name}, {"kind", a.kind, b.kind}, {"class", a.class, b.class},
		{"start", a.start, b.start}, {"target", a.target, b.target}, {"latch", a.latch, b.latch},
		{"op", a.op, b.op}, {"report", a.report, b.report}, {"code", a.code, b.code},
		{"names", a.name, b.name}, {"origin", a.origin, b.origin},
		{"outEdges", a.outEdges, b.outEdges}, {"outOff", a.outOff, b.outOff},
		{"inEdges", a.inEdges, b.inEdges}, {"inOff", a.inOff, b.inOff},
		{"specials", a.specials, b.specials}, {"stats", a.stats, b.stats}, {"divisor", a.divisor, b.divisor},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Errorf("%s: %v != %v", f.name, f.a, f.b)
		}
	}
	return nil
}
