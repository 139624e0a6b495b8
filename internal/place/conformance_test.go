// Compile-conformance suite (external test package: it drives the place
// flows through core/rapidgen/bench, which the internal package cannot
// import without a cycle).
//
// The contract under test: for any design, the stamped placement and the
// baseline global placement yield devices with identical match reports,
// and the parallel placement is byte-identical to the serial one. The
// suite runs 30 generated rapidgen programs plus the 5 paper benchmarks;
// RAPID_CONFORMANCE_PROGRAMS scales the generated count for the nightly
// soak. Every generated case logs its seed, so failures replay with
// rapidgen.New(seed).
package place_test

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/rapidgen"
)

// placementSurface is the comparable part of a Placement.
func placementSurface(p *place.Placement) [3]interface{} {
	return [3]interface{}{p.BlockOf, p.RowOf, p.Metrics}
}

// conformOne places net's device network three ways — serial global,
// parallel global, stamped — and asserts (a) parallel ≡ serial and (b) all
// three produce identical match reports on every input. Returns false when
// the design legitimately cannot place (capacity).
func conformOne(t *testing.T, name string, net *automata.Network, st *place.Stamper, inputs [][]byte) bool {
	t.Helper()
	net = place.DeviceNetwork(net)
	serial, err := place.Place(net, place.Config{Parallelism: 1})
	if err != nil {
		var ce *place.CapacityError
		if errors.As(err, &ce) {
			return false
		}
		t.Fatalf("%s: serial place: %v", name, err)
	}
	parallel, err := place.Place(net, place.Config{Parallelism: 8})
	if err != nil {
		t.Fatalf("%s: parallel place: %v", name, err)
	}
	stamped, err := place.Place(net, place.Config{Parallelism: 1, Stamper: st})
	if err != nil {
		t.Fatalf("%s: stamped place: %v", name, err)
	}
	if !reflect.DeepEqual(placementSurface(serial), placementSurface(parallel)) {
		t.Fatalf("%s: parallel placement differs from serial", name)
	}
	sTop := serial.Network.MustFreeze()
	pTop := parallel.Network.MustFreeze()
	mTop := stamped.Network.MustFreeze()
	for i, input := range inputs {
		want := automata.Canonical(sTop.Run(input))
		if got := automata.Canonical(pTop.Run(input)); !slices.Equal(got, want) {
			t.Fatalf("%s input %d: parallel reports differ: got %d keys, want %d", name, i, len(got), len(want))
		}
		if got := automata.Canonical(mTop.Run(input)); !slices.Equal(got, want) {
			t.Fatalf("%s input %d: stamped reports differ: got %d keys, want %d", name, i, len(got), len(want))
		}
	}
	return true
}

func conformancePrograms() int {
	if s := os.Getenv("RAPID_CONFORMANCE_PROGRAMS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 30
}

func TestCompileConformanceRapidgen(t *testing.T) {
	gen := rapidgen.New(42)
	st := place.NewStamper() // shared: exercises cross-design footprint reuse
	placed := 0
	n := conformancePrograms()
	for i := 0; i < n; i++ {
		p := gen.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated program does not load: %v", p.Seed, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", p.Seed, err)
		}
		if res.Network.Len() == 0 {
			continue
		}
		t.Logf("case %d: rapidgen seed %d", i, p.Seed)
		if conformOne(t, "seed "+strconv.FormatInt(p.Seed, 10), res.Network, st, rapidgen.Inputs(p, 3)) {
			placed++
		}
	}
	if placed < n/2 {
		t.Fatalf("only %d/%d generated programs were placeable; suite lost its teeth", placed, n)
	}
}

func TestCompileConformanceBenchmarks(t *testing.T) {
	st := place.NewStamper()
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(4)
			prog, err := core.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Compile(args, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			inputs := [][]byte{b.Input(rng, 512), b.Input(rng, 512)}
			if !conformOne(t, b.Name, res.Network, st, inputs) {
				t.Fatalf("%s did not place", b.Name)
			}
		})
	}
}
