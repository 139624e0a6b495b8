package rapid_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rapidgen"
)

// compileBench compiles a paper benchmark at a test-sized instance count
// and returns its network.
func compileBench(t *testing.T, mb *bench.Benchmark) *automata.Network {
	t.Helper()
	n := mb.DefaultInstances
	if n > 20 {
		n = 20 // Brill's 219 rules are overkill for a conformance walk
	}
	src, args := mb.RAPID(n)
	prog, err := core.Load(src)
	if err != nil {
		t.Fatalf("%s: %v", mb.Name, err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		t.Fatalf("%s: %v", mb.Name, err)
	}
	return res.Network
}

// checkFastSimParity runs every stream through the naive Simulator oracle
// and the kernel-backed FastSimulator and requires byte-identical report
// streams. The batch runs twice — cold and warm — to catch state leaking
// across Run calls.
func checkFastSimParity(t *testing.T, name string, net *automata.Network, streams [][]byte) {
	t.Helper()
	oracle, err := automata.NewSimulator(net)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	fast, err := automata.NewFastSimulator(net)
	if err != nil {
		t.Fatalf("%s: fast: %v", name, err)
	}
	for pass := 0; pass < 2; pass++ { // cold, then warm
		for i, in := range streams {
			want := oracle.Run(in)
			got := fast.Run(in)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s pass %d stream %d: fast %v != oracle %v", name, pass, i, got, want)
			}
		}
	}
}

// multiStreamWorkload draws streams independent inputs of uneven lengths
// (up to streamBytes) from the benchmark's generator, which embeds real
// match material.
func multiStreamWorkload(mb *bench.Benchmark, streams, streamBytes int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, streams)
	for i := range out {
		in := mb.Input(rng, streamBytes)
		out[i] = in[:len(in)-(i*7)%300]
	}
	return out
}

// TestFastSimDifferentialBenchmarks cross-checks the two simulators on all
// five paper benchmarks, counter and gate designs included.
func TestFastSimDifferentialBenchmarks(t *testing.T) {
	for _, mb := range bench.All() {
		mb := mb
		t.Run(mb.Name, func(t *testing.T) {
			net := compileBench(t, mb)
			checkFastSimParity(t, mb.Name, net, multiStreamWorkload(mb, 64, 512, 11))
		})
	}
}

// TestFastSimDifferentialRapidgen cross-checks the simulators on generated
// RAPID programs, inputs drawn from each program's own alphabet.
func TestFastSimDifferentialRapidgen(t *testing.T) {
	programs := 30
	if testing.Short() {
		programs = 8
	}
	for seed := int64(1); seed <= int64(programs); seed++ {
		p := rapidgen.New(seed).Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		checkFastSimParity(t, p.Source, res.Network, rapidgen.Inputs(p, 16))
	}
}
