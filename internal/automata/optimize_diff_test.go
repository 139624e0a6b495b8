package automata_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rapidgen"
)

// paperNetwork compiles benchmark b's RAPID program, or builds its hand
// design, at n instances.
func paperNetwork(t testing.TB, b *bench.Benchmark, hand bool, n int) *automata.Network {
	t.Helper()
	if hand {
		net, err := b.Hand(n)
		if err != nil {
			t.Fatalf("%s hand(%d): %v", b.Name, n, err)
		}
		return net
	}
	src, args := b.RAPID(n)
	prog, err := core.Load(src)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		t.Fatalf("%s(%d): %v", b.Name, n, err)
	}
	return res.Network
}

// checkOptimize holds OptimizeForDevice to the reference merge byte for
// byte and, when equiv is set and the design is counter-free, to the input
// design's language.
func checkOptimize(t *testing.T, name string, net *automata.Network, equiv bool) {
	t.Helper()
	got := net.OptimizeForDevice(16)
	if err := automata.SameNetwork(got, automata.ReferenceOptimizeForDevice(net, 16)); err != nil {
		t.Fatalf("%s: optimiser differs from the reference merge: %v", name, err)
	}
	if equiv && net.MustFreeze().Pure() {
		if err := automata.Equivalent(net.MustFreeze(), got.MustFreeze()); err != nil {
			t.Fatalf("%s: optimised design is not equivalent: %v", name, err)
		}
	}
}

// TestOptimizeMatchesReference is the worklist merge's differential
// property: on every paper design, RAPID and hand, from 1 to 150 instances,
// on Brill at its fixed size, and on generated RAPID programs, the device
// pipeline's output equals the round-based reference element for element
// and edge for edge. The one-instance designs and the generated programs
// are also checked for equivalence where they are counter-free, except
// Gappy, whose joint subset construction does not finish.
func TestOptimizeMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 5, 16, 32, 64, 150}
	if testing.Short() || raceEnabled {
		sizes = []int{1, 2, 16}
	}
	for _, b := range bench.All() {
		for _, hand := range []bool{false, true} {
			counts := sizes
			if b.FullBoardInstances == 0 {
				counts = []int{b.DefaultInstances}
			}
			for _, n := range counts {
				checkOptimize(t, fmt.Sprintf("%s hand=%v n=%d", b.Name, hand, n), paperNetwork(t, b, hand, n), n == 1 && b.Name != "Gappy")
			}
		}
	}
	g := rapidgen.New(35)
	for i := 0; i < 40; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		checkOptimize(t, fmt.Sprintf("rapidgen program %d", i), res.Network, true)
	}
}

// TestOptimizeDeterministic runs the optimiser four times on hand
// MOTOMATA-8, whose suffix merge once took its groups in map order: the
// outputs must be identical, edge order included, because placement
// depends on it.
func TestOptimizeDeterministic(t *testing.T) {
	net := paperNetwork(t, bench.Motomata(), true, 8)
	first := net.OptimizeForDevice(16)
	for i := 0; i < 3; i++ {
		if err := automata.SameNetwork(first, net.OptimizeForDevice(16)); err != nil {
			t.Fatalf("run %d differs from the first: %v", i+2, err)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// optimizePairs is how many interleaved (reference, worklist) runs
// TestOptimizeFloor takes the median of.
const optimizePairs = 7

// TestOptimizeFloor holds the worklist merge to its reason to exist: on
// gappy-32, whose prefix merge takes 25 rounds, OptimizeForDevice runs at
// least 8× faster than the same pipeline with the round-based reference
// merge (≈12× measured on a 2-vCPU Xeon). Both sides run in this process,
// interleaved, and each collects first so neither pays for the other's
// garbage.
func TestOptimizeFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the ratio; plain go test checks the floor")
	}
	const floor = 8
	net := paperNetwork(t, bench.Gappy(), false, 32)
	net.MustFreeze()
	timed := func(optimize func(*automata.Network, int) *automata.Network) time.Duration {
		runtime.GC()
		start := time.Now()
		optimize(net, 16)
		return time.Since(start)
	}
	worklist := (*automata.Network).OptimizeForDevice
	ratios := make([]float64, optimizePairs)
	for i := range ratios {
		var r, w time.Duration
		if i%2 == 0 {
			r, w = timed(automata.ReferenceOptimizeForDevice), timed(worklist)
		} else {
			w, r = timed(worklist), timed(automata.ReferenceOptimizeForDevice)
		}
		ratios[i] = float64(r) / float64(w)
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	if ratio < floor {
		t.Fatalf("worklist merge is %.2f× the reference on gappy-32 (pairs %.2f), below its %d× floor", ratio, ratios, floor)
	}
	t.Logf("gappy-32: worklist merge %.1f× the reference (floor %d×)", ratio, floor)
}
