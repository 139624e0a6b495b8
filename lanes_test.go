package rapid_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	rapid "repro"
	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rapidgen"
	"repro/internal/telemetry"
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

// checkLaneParity runs every stream through the legacy Simulator oracle,
// the SoA FastSimulator, and (pure designs) the 64-lane walk, and
// requires byte-identical report streams. Each simulator runs the batch
// twice — cold and warm — to catch state leaking across Run calls.
func checkLaneParity(t *testing.T, name string, net *automata.Network, streams [][]byte) {
	t.Helper()
	oracle, err := automata.NewSimulator(net)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	top, err := net.Freeze()
	if err != nil {
		t.Fatalf("%s: freeze: %v", name, err)
	}
	fast := top.NewFastSimulator()
	lane, laneErr := top.NewLaneSimulator()
	if top.Pure() != (laneErr == nil) {
		t.Fatalf("%s: Pure()=%v but NewLaneSimulator err=%v", name, top.Pure(), laneErr)
	}

	for pass := 0; pass < 2; pass++ { // cold, then warm
		var lanesOut [][]automata.Report
		if lane != nil {
			lanesOut, err = lane.Run(context.Background(), streams)
			if err != nil {
				t.Fatalf("%s pass %d: lane run: %v", name, pass, err)
			}
		}
		for i, in := range streams {
			want := oracle.Run(in)
			got := fast.Run(in)
			if !sameReports(got, want) {
				t.Fatalf("%s pass %d stream %d: fast %v != oracle %v", name, pass, i, got, want)
			}
			if lane != nil && !sameReports(lanesOut[i], want) {
				t.Fatalf("%s pass %d stream %d: lane %v != oracle %v", name, pass, i, lanesOut[i], want)
			}
		}
	}
}

func sameReports(a, b []automata.Report) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestLaneDifferentialBenchmarks cross-checks the three execution paths
// on all five paper benchmarks. Counter/gate designs verify the lane
// tier's documented refusal instead of a lane walk.
func TestLaneDifferentialBenchmarks(t *testing.T) {
	for _, mb := range bench.All() {
		mb := mb
		t.Run(mb.Name, func(t *testing.T) {
			net := compileBench(t, mb)
			// 64 streams of uneven lengths so lanes die at different
			// positions; harness workloads embed real match material.
			base := harness.MultiStreamWorkload(mb, automata.MaxLanes, 512, 11)
			for i := range base {
				base[i] = base[i][:len(base[i])-(i*7)%300]
			}
			checkLaneParity(t, mb.Name, net, base)
		})
	}
}

// TestLaneDifferentialRapidgen cross-checks the paths on generated RAPID
// programs, inputs drawn from each program's own alphabet.
func TestLaneDifferentialRapidgen(t *testing.T) {
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
		checkLaneParity(t, p.Source, res.Network, rapidgen.Inputs(p, 16))
	}
}

// TestEngineWithLanes: the lane-batched engine must return exactly what
// the per-stream engine returns — same grouping-invariant results on a
// batch larger than one lane group, with unequal stream lengths.
func TestEngineWithLanes(t *testing.T) {
	mb := bench.Exact()
	src, args := mb.RAPID(mb.DefaultInstances)
	prog, err := rapid.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	laned, err := design.NewEngine(rapid.WithLanes(rapid.MaxLanes), rapid.WithWorkers(2), rapid.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if laned.Lanes() != rapid.MaxLanes {
		t.Fatalf("Lanes() = %d, want %d", laned.Lanes(), rapid.MaxLanes)
	}

	rng := rand.New(rand.NewSource(5))
	streams := make([][]byte, 150) // > 2 full lane groups, one partial
	for i := range streams {
		streams[i] = mb.Input(rng, 64+rng.Intn(400))
	}
	streams[17] = nil // an empty stream inside a group

	want, err := plain.RunBatch(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	got, err := laned.RunBatch(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for i := range streams {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("stream %d: lane engine %v != per-stream %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("stream %d report %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
		matches += len(want[i])
	}
	if matches == 0 {
		t.Fatal("workload produced no reports; test is vacuous")
	}
	// A lane group is as many streams as it carries: the backend stream
	// count equals the lane stream count, so their ratio never exceeds 1.
	snap := reg.Snapshot()
	backendStreams := snap.Counter("rapid_backend_streams_total", "backend", string(rapid.BackendLazyDFA))
	laneStreams := snap.Counter("rapid_engine_lane_streams_total")
	if backendStreams != uint64(len(streams)) || laneStreams != uint64(len(streams)) {
		t.Fatalf("backend_streams = %d, lane_streams = %d, want both %d", backendStreams, laneStreams, len(streams))
	}
}

// TestEngineWithLanesFallback: a design with counters silently falls back
// to per-stream execution but still answers correctly.
func TestEngineWithLanesFallback(t *testing.T) {
	var counterBench *bench.Benchmark
	for _, mb := range bench.All() {
		net := compileBench(t, mb)
		if top, err := net.Freeze(); err == nil && !top.Pure() {
			counterBench = mb
			break
		}
	}
	if counterBench == nil {
		t.Skip("no counter benchmark available")
	}
	src, args := counterBench.RAPID(1)
	prog, err := rapid.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := design.NewEngine(rapid.WithLanes(rapid.MaxLanes))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Lanes() != 0 {
		t.Fatalf("Lanes() = %d on a counter design, want 0 (fallback)", eng.Lanes())
	}
	plain, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	streams := [][]byte{counterBench.Input(rng, 256), counterBench.Input(rng, 100)}
	want, err := plain.RunBatch(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunBatch(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback engine %v != plain %v", got, want)
	}
}
