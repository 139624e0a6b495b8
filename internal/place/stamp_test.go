package place

import (
	"reflect"
	"testing"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/charclass"
)

// shapeOfNet freezes a single-component network and hashes its one
// component.
func shapeOfNet(t *testing.T, net *automata.Network) (ShapeHash, *automata.Topology, []automata.ElementID) {
	t.Helper()
	top, err := net.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	comps := Components(top)
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	return ShapeOf(top, comps[0]), top, comps[0]
}

func TestShapeHashIsLiteralBlind(t *testing.T) {
	// Equal shape, different literals: hashes and footprints must match —
	// this is exactly what lets a pattern bank of distinct words stamp.
	h1, top1, c1 := shapeOfNet(t, chain("abcdefghijklmnopq"))
	h2, top2, c2 := shapeOfNet(t, chain("zyxwvutsrqponmlkj"))
	if h1 != h2 {
		t.Fatal("literal change altered the shape hash")
	}
	fp1 := FootprintOf(top1, c1, ap.FirstGeneration())
	fp2 := FootprintOf(top2, c2, ap.FirstGeneration())
	if !reflect.DeepEqual(fp1, fp2) {
		t.Fatalf("equal hashes, different footprints:\n%+v\n%+v", fp1, fp2)
	}
}

func TestShapeHashSensitivity(t *testing.T) {
	// Every placement-relevant attribute mutation must change the hash.
	base := func() *automata.Network { return chain("abcd") }

	variants := map[string]func() *automata.Network{
		"base": base,
		"no-report": func() *automata.Network {
			// The base chain without its trailing report statement.
			m := automata.NewNetwork("chain")
			prev := automata.NoElement
			for i := 0; i < 4; i++ {
				start := automata.StartNone
				if i == 0 {
					start = automata.StartAllInput
				}
				id := m.AddSTE(charclass.Single(byte('a'+i)), start)
				if prev != automata.NoElement {
					m.Connect(prev, id, automata.PortIn)
				}
				prev = id
			}
			return m
		},
		"start-kind": func() *automata.Network {
			n := automata.NewNetwork("chain")
			prev := automata.NoElement
			for i := 0; i < 4; i++ {
				id := n.AddSTE(charclass.Single(byte('a'+i)), automata.StartAllInput)
				if prev != automata.NoElement {
					n.Connect(prev, id, automata.PortIn)
				}
				prev = id
			}
			n.SetReport(prev, 0)
			return n
		},
		"extra-edge": func() *automata.Network {
			n := base()
			n.Connect(automata.ElementID(0), automata.ElementID(2), automata.PortIn)
			return n
		},
		"self-loop": func() *automata.Network {
			n := base()
			n.Connect(automata.ElementID(3), automata.ElementID(3), automata.PortIn)
			return n
		},
	}
	hashes := make(map[string]ShapeHash, len(variants))
	for name, build := range variants {
		h, _, _ := shapeOfNet(t, build())
		hashes[name] = h
	}
	for name, h := range hashes {
		if name == "base" {
			continue
		}
		if h == hashes["base"] {
			t.Errorf("variant %q hashes equal to base", name)
		}
	}
}

func TestShapeHashPortSensitivity(t *testing.T) {
	// An edge driving a counter's count port vs its reset port is a
	// different shape: the layouts route differently on hardware.
	build := func(port automata.Port) *automata.Network {
		n := automata.NewNetwork("counted")
		s := n.AddSTE(charclass.Single('a'), automata.StartAllInput)
		c := n.AddCounter(3)
		n.Connect(s, c, port)
		// Keep the counter driven on its count port too so the network
		// stays valid in both variants.
		s2 := n.AddSTE(charclass.Single('b'), automata.StartAllInput)
		n.Connect(s2, c, automata.PortCount)
		n.SetReport(c, 0)
		return n
	}
	h1, _, _ := shapeOfNet(t, build(automata.PortCount))
	h2, _, _ := shapeOfNet(t, build(automata.PortReset))
	if h1 == h2 {
		t.Fatal("port change did not alter the shape hash")
	}
}

func TestFootprintMultiRow(t *testing.T) {
	res := ap.FirstGeneration()
	_, top, comp := shapeOfNet(t, chain("abcdefghijklmnopqrstuvwxyzabcdefghijklmn")) // 40 STEs
	fp := FootprintOf(top, comp, res)
	wantRows := (40 + res.STEsPerRow - 1) / res.STEsPerRow
	if fp.Rows != wantRows {
		t.Fatalf("rows = %d, want %d", fp.Rows, wantRows)
	}
	if fp.Usage.STEs != 40 || fp.Usage.Counters != 0 || fp.Usage.Boolean != 0 {
		t.Fatalf("usage = %+v", fp.Usage)
	}
	if fp.BRLines < 1 {
		t.Fatal("multi-row chain must consume BR lines")
	}
	if len(fp.RowOf) != len(comp) {
		t.Fatalf("RowOf len = %d, want %d", len(fp.RowOf), len(comp))
	}
	for i, r := range fp.RowOf {
		if r < 0 || r >= fp.Rows {
			t.Fatalf("element rank %d on row %d outside span %d", i, r, fp.Rows)
		}
	}
}

func TestStamperCache(t *testing.T) {
	st := NewStamper()
	h, top, comp := shapeOfNet(t, chain("abcdefgh"))
	if st.has(h) {
		t.Fatal("empty stamper claims to have a shape")
	}
	fp1 := st.footprint(h, top, comp, ap.FirstGeneration())
	fp2 := st.footprint(h, top, comp, ap.FirstGeneration())
	if fp1 != fp2 {
		t.Fatal("second lookup did not return the cached footprint")
	}
	if st.Shapes() != 1 || st.Misses() != 1 || st.Hits() != 1 {
		t.Fatalf("shapes=%d misses=%d hits=%d, want 1/1/1", st.Shapes(), st.Misses(), st.Hits())
	}
	if !st.has(h) {
		t.Fatal("stamper lost the cached shape")
	}
}

func TestPlaceWithStamperStampsRepeatedShapes(t *testing.T) {
	// 64 chains of one shape: all 64 instances must take the stamping
	// path, against a single cached footprint.
	st := NewStamper()
	p, err := Place(manyChains(64, 17), Config{Stamper: st})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stamped != 64 {
		t.Fatalf("stamped = %d, want 64", p.Stamped)
	}
	if st.Shapes() != 1 {
		t.Fatalf("distinct shapes = %d, want 1", st.Shapes())
	}
	res := ap.FirstGeneration()
	top := p.Network.MustFreeze()
	usage := make(map[int]int)
	for id := automata.ElementID(0); id < automata.ElementID(top.Len()); id++ {
		b := p.BlockOf[id]
		if b < 0 || b >= p.Metrics.TotalBlocks {
			t.Fatalf("element %d in invalid block %d", id, b)
		}
		if r := p.RowOf[id]; r < 0 || r >= res.RowsPerBlock {
			t.Fatalf("element %d on invalid row %d", id, r)
		}
		usage[b]++
	}
	for b, n := range usage {
		if n > res.STEsPerBlock() {
			t.Fatalf("block %d holds %d elements", b, n)
		}
	}
}

func TestStamperSeededByDesignUniqueShape(t *testing.T) {
	// The serving manifest case: every design holds ONE instance of the
	// rule family's shape. The first design places globally but must seed
	// the cross-design cache, so the second design stamps.
	st := NewStamper()
	first, err := Place(manyChains(1, 17), Config{Stamper: st})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stamped != 0 {
		t.Fatalf("first design stamped = %d, want 0 (unique shapes keep the grouped path)", first.Stamped)
	}
	if st.Shapes() != 1 {
		t.Fatalf("first design did not seed the cache: shapes = %d, want 1", st.Shapes())
	}
	second, err := Place(manyChains(1, 17), Config{Stamper: st})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stamped != 1 {
		t.Fatalf("second design stamped = %d, want 1 (cross-design hit)", second.Stamped)
	}
}

func TestStamperReusesFootprintsAcrossDesigns(t *testing.T) {
	// First design populates the cache; a later design holding a single
	// instance of the same shape (unique within itself) still stamps.
	st := NewStamper()
	if _, err := Place(manyChains(4, 17), Config{Stamper: st}); err != nil {
		t.Fatal(err)
	}
	p, err := Place(manyChains(1, 17), Config{Stamper: st})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stamped != 1 {
		t.Fatalf("cross-design stamped = %d, want 1", p.Stamped)
	}
	if st.Shapes() != 1 {
		t.Fatalf("distinct shapes = %d, want 1", st.Shapes())
	}
}
