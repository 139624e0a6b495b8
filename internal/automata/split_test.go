package automata

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/charclass"
)

func splitChain(n *Network, word string, start StartKind) ElementID {
	prev := NoElement
	for i := 0; i < len(word); i++ {
		kind := StartNone
		if i == 0 {
			kind = start
		}
		id := n.AddSTE(charclass.Single(word[i]), kind)
		if prev != NoElement {
			n.Connect(prev, id, PortIn)
		}
		prev = id
	}
	return prev
}

func TestSplitSpecialsPartition(t *testing.T) {
	n := NewNetwork("mix")
	// Component 1: pure chain, reporting.
	a := splitChain(n, "ab", StartAllInput)
	n.SetReport(a, 1)
	// Component 2: chain driving a counter.
	b := splitChain(n, "x", StartAllInput)
	ctr := n.AddCounter(2)
	n.Connect(b, ctr, PortCount)
	n.SetReport(ctr, 2)
	// Component 3: dead chain (no start STE) — must be dropped.
	dead := n.AddSTE(charclass.Single('z'), StartNone)
	n.SetReport(dead, 3)

	pure, special := SplitSpecials(n.MustFreeze())
	if pure == nil || special == nil {
		t.Fatalf("pure=%v special=%v, want both non-nil", pure, special)
	}
	ps, ss := pure.Stats(), special.Stats()
	if ps.STEs != 2 || ps.Counters != 0 || ps.Reporting != 1 {
		t.Fatalf("pure stats = %+v", ps)
	}
	if ss.STEs != 1 || ss.Counters != 1 || ss.Reporting != 1 {
		t.Fatalf("special stats = %+v", ss)
	}

	// Behavior is preserved: the halves' merged report sets equal the
	// whole network's.
	input := []byte("abxxab")
	whole, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	pr := pure.Run(input)
	sr := special.Run(input)
	offsets := func(rs []Report) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, r := range rs {
			m[[2]int{r.Offset, r.Code}] = true
		}
		return m
	}
	want := offsets(whole)
	got := offsets(append(pr, sr...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split run %v != whole run %v", got, want)
	}
}

func TestSplitSpecialsAllPure(t *testing.T) {
	n := NewNetwork("pure")
	a := splitChain(n, "ab", StartAllInput)
	n.SetReport(a, 0)
	pure, special := SplitSpecials(n.MustFreeze())
	if pure == nil || special != nil {
		t.Fatalf("pure=%v special=%v, want pure only", pure, special)
	}
}

func TestSplitSpecialsAllSpecial(t *testing.T) {
	n := NewNetwork("ctr")
	a := splitChain(n, "a", StartAllInput)
	ctr := n.AddCounter(1)
	n.Connect(a, ctr, PortCount)
	n.SetReport(ctr, 0)
	pure, special := SplitSpecials(n.MustFreeze())
	if pure != nil || special == nil {
		t.Fatalf("pure=%v special=%v, want special only", pure, special)
	}
}

// TestSplitSpecialsAllSpecialMulti: every component carries a special
// element (one a counter, one a gate), so the pure half is empty and
// the special half preserves behavior exactly.
func TestSplitSpecialsAllSpecialMulti(t *testing.T) {
	n := NewNetwork("specials")
	a := splitChain(n, "a", StartAllInput)
	ctr := n.AddCounter(2)
	n.Connect(a, ctr, PortCount)
	n.SetReport(ctr, 1)

	b := splitChain(n, "b", StartAllInput)
	c := splitChain(n, "c", StartAllInput)
	gate := n.AddGate(GateOr)
	n.Connect(b, gate, PortIn)
	n.Connect(c, gate, PortIn)
	n.SetReport(gate, 2)

	pure, special := SplitSpecials(n.MustFreeze())
	if pure != nil || special == nil {
		t.Fatalf("pure=%v special=%v, want special only", pure, special)
	}
	ss := special.Stats()
	if ss.STEs != 3 || ss.Counters != 1 || ss.Gates != 1 || ss.Reporting != 2 {
		t.Fatalf("special stats = %+v", ss)
	}
	input := []byte("abcab")
	whole, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	half := special.Run(input)
	if !slices.Equal(Canonical(half), Canonical(whole)) {
		t.Fatalf("special run %v != whole run %v", half, whole)
	}
}

// TestSplitSpecialsSingletons: single-element components — a lone
// reporting start STE on the pure side, a lone start STE feeding a
// counter on the special side — survive with IDs renumbered densely.
func TestSplitSpecialsSingletons(t *testing.T) {
	n := NewNetwork("singletons")
	lone := n.AddSTE(charclass.Single('s'), StartAllInput)
	n.SetReport(lone, 7)
	drv := n.AddSTE(charclass.Single('t'), StartAllInput)
	ctr := n.AddCounter(1)
	n.Connect(drv, ctr, PortCount)
	n.SetReport(ctr, 8)

	pure, special := SplitSpecials(n.MustFreeze())
	if pure == nil || special == nil {
		t.Fatalf("pure=%v special=%v, want both", pure, special)
	}
	if pure.Len() != 1 {
		t.Fatalf("pure has %d elements, want 1", pure.Len())
	}
	if special.Len() != 2 {
		t.Fatalf("special has %d elements, want 2", special.Len())
	}
	input := []byte("stst")
	whole, _ := n.Run(input)
	pr := pure.Run(input)
	sr := special.Run(input)
	if !slices.Equal(Canonical(append(pr, sr...)), Canonical(whole)) {
		t.Fatalf("split runs %v+%v != whole %v", pr, sr, whole)
	}
}

// TestSplitSpecialsDeadComponents: components with no start STE can
// never activate and are dropped — from both halves — even when they
// contain reporting elements or specials.
func TestSplitSpecialsDeadComponents(t *testing.T) {
	n := NewNetwork("dead")
	// Live pure component.
	live := splitChain(n, "ok", StartAllInput)
	n.SetReport(live, 1)
	// Dead pure chain: multi-element, reporting, no start anywhere.
	dp := splitChain(n, "no", StartNone)
	n.SetReport(dp, 2)
	// Dead special component: counter driven by a startless STE.
	dd := n.AddSTE(charclass.Single('q'), StartNone)
	dctr := n.AddCounter(1)
	n.Connect(dd, dctr, PortCount)
	n.SetReport(dctr, 3)

	pure, special := SplitSpecials(n.MustFreeze())
	if pure == nil {
		t.Fatal("live pure component was dropped")
	}
	if special != nil {
		t.Fatalf("dead special component survived: %+v", special.Stats())
	}
	ps := pure.Stats()
	if ps.STEs != 2 || ps.Reporting != 1 {
		t.Fatalf("pure stats = %+v, want only the live chain", ps)
	}

	// A network that is nothing but dead components cannot even freeze
	// (no start STE), so it can never reach SplitSpecials.
	n2 := NewNetwork("alldead")
	x := splitChain(n2, "xy", StartNone)
	n2.SetReport(x, 1)
	y := n2.AddSTE(charclass.Single('z'), StartNone)
	c2 := n2.AddCounter(1)
	n2.Connect(y, c2, PortCount)
	n2.SetReport(c2, 2)
	if _, err := n2.Freeze(); err == nil {
		t.Fatal("all-dead network froze, want validation error")
	}
}
