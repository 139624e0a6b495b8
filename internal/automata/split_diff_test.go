package automata_test

import (
	"fmt"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rapidgen"
)

// TestSplitSpecialsMatchesBuilder holds SplitSpecials, which cuts each
// side straight from the frozen arrays, to the builder path it replaced:
// on every paper design, RAPID and hand, as compiled and as optimised for
// the device, and on generated RAPID programs, both sides are identical
// array for array, specials order, stats and divisor included.
func TestSplitSpecialsMatchesBuilder(t *testing.T) {
	check := func(name string, net *automata.Network) {
		t.Helper()
		for _, n := range []*automata.Network{net, net.OptimizeForDevice(16)} {
			top, err := n.Freeze()
			if err != nil {
				continue // a program that never reports optimises to nothing
			}
			pure, special := automata.SplitSpecials(top)
			refPure, refSpecial := automata.ReferenceSplitSpecials(top)
			if err := automata.SameTopology(pure, refPure); err != nil {
				t.Fatalf("%s: pure side: %v", name, err)
			}
			if err := automata.SameTopology(special, refSpecial); err != nil {
				t.Fatalf("%s: special side: %v", name, err)
			}
		}
	}
	sizes := []int{1, 2, 16, 32}
	if testing.Short() || raceEnabled {
		sizes = []int{1, 2}
	}
	for _, b := range bench.All() {
		for _, hand := range []bool{false, true} {
			counts := sizes
			if b.FullBoardInstances == 0 {
				counts = []int{b.DefaultInstances}
			}
			for _, n := range counts {
				check(fmt.Sprintf("%s hand=%v n=%d", b.Name, hand, n), paperNetwork(t, b, hand, n))
			}
		}
	}
	g := rapidgen.New(44)
	for i := 0; i < 100; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		check(fmt.Sprintf("rapidgen program %d", i), res.Network)
	}
}
