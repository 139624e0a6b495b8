package automata_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/charclass"
	"repro/internal/core"
	"repro/internal/rapidgen"
)

// refPartition is the per-STE refinement Partition replaced: one group of
// all symbols, split by every STE's class in order, each group's symbols
// in the class first.
func refPartition(tops ...*automata.Topology) *automata.SymbolPartition {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	groups := [][]byte{all}
	for _, t := range tops {
		for id := automata.ElementID(0); id < automata.ElementID(t.Len()); id++ {
			if t.Kind(id) != automata.KindSTE {
				continue
			}
			var next [][]byte
			for _, g := range groups {
				var in, out []byte
				for _, sym := range g {
					if t.Class(id).Contains(sym) {
						in = append(in, sym)
					} else {
						out = append(out, sym)
					}
				}
				for _, part := range [][]byte{in, out} {
					if len(part) > 0 {
						next = append(next, part)
					}
				}
			}
			groups = next
		}
	}
	p := &automata.SymbolPartition{}
	for gi, g := range groups {
		p.Representatives = append(p.Representatives, g[0])
		for _, sym := range g {
			p.GroupOf[sym] = gi
		}
	}
	return p
}

// randomClassNetwork is a chain of STEs whose classes are drawn from a
// small pool of singletons, ranges and their complements, so classes
// repeat and overlap.
func randomClassNetwork(rng *rand.Rand) *automata.Network {
	pool := make([]charclass.Class, 1+rng.Intn(12))
	for i := range pool {
		lo := byte(rng.Intn(256))
		switch rng.Intn(3) {
		case 0:
			pool[i] = charclass.Single(lo)
		case 1:
			pool[i] = charclass.Range(lo, lo+byte(rng.Intn(int(255-lo)+1)))
		default:
			pool[i] = charclass.Single(lo).Negate()
		}
	}
	n := automata.NewNetwork("classes")
	prev := automata.NoElement
	for i := 0; i < 1+rng.Intn(40); i++ {
		start := automata.StartNone
		if prev == automata.NoElement {
			start = automata.StartAllInput
		}
		id := n.AddSTE(pool[rng.Intn(len(pool))], start)
		if prev != automata.NoElement {
			n.Connect(prev, id, automata.PortIn)
		}
		prev = id
	}
	n.SetReport(prev, 0)
	return n
}

// TestPartitionMatchesRefinement: refining once per distinct class gives
// the per-STE refinement's groups in the same order, so the same
// representatives and group map, on every bench design at 1, 4 and 32
// instances (Brill at its one size), on generated RAPID programs, on
// random class networks, and on two topologies at once as Equivalent
// partitions them.
func TestPartitionMatchesRefinement(t *testing.T) {
	check := func(name string, tops ...*automata.Topology) {
		t.Helper()
		if got, want := automata.Partition(tops...), refPartition(tops...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: partition %v differs from the per-STE refinement %v", name, got.Representatives, want.Representatives)
		}
	}
	for _, b := range bench.All() {
		counts := []int{1, 4, 32}
		if b.FullBoardInstances == 0 {
			counts = []int{b.DefaultInstances}
		}
		for _, n := range counts {
			net := paperNetwork(t, b, false, n)
			name := fmt.Sprintf("%s-%d", b.Name, n)
			check(name, net.MustFreeze())
			check(name+" with its optimised form", net.MustFreeze(), net.OptimizeForDevice(16).MustFreeze())
		}
	}
	g := rapidgen.New(43)
	for i := 0; i < 20; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		check(fmt.Sprintf("rapidgen program %d", i), res.Network.MustFreeze())
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		a, b := randomClassNetwork(rng).MustFreeze(), randomClassNetwork(rng).MustFreeze()
		check(fmt.Sprintf("random network %d", i), a)
		check(fmt.Sprintf("random networks %d, two at once", i), a, b)
	}
}
