package automata_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/rapidgen"
)

// TestKernelAgainstOracle is the kernel's differential property: on
// generated RAPID programs (counters and gates included) the kernel-backed
// FastSimulator must report exactly what the naive Simulator reports —
// the oracle shares no code with the kernel, which is the point — both on
// a straight run and when the stream is cut at a random offset,
// snapshotted, disturbed, restored, and finished. The cut is the shape of
// every mid-stream hand-off (checkpoint replay, lazy-DFA demotion).
func TestKernelAgainstOracle(t *testing.T) {
	programs := 40
	if testing.Short() {
		programs = 10
	}
	cfg := rapidgen.DefaultConfig()
	cfg.MaxCounters = 3
	g := rapidgen.NewWithConfig(14, cfg)
	rng := rand.New(rand.NewSource(14))
	counters, gates := 0, 0
	for i := 0; i < programs; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		stats := res.Network.Stats()
		counters += stats.Counters
		gates += stats.Gates
		sim, err := automata.NewFastSimulator(res.Network)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, input := range rapidgen.Inputs(p, 6) {
			want, err := res.Network.Run(input)
			if err != nil {
				t.Fatalf("program %d: oracle: %v", i, err)
			}
			if got := sim.Run(input); !sameReports(got, want) {
				t.Fatalf("program %d input %q: kernel %v != oracle %v\n%s", i, input, got, want, p.Source)
			}
			cut := rng.Intn(len(input) + 1)
			sim.Reset()
			for _, b := range input[:cut] {
				sim.Step(b)
			}
			snap := sim.Snapshot()
			for _, b := range input { // wander off, then rewind
				sim.Step(b)
			}
			sim.Restore(snap)
			for _, b := range input[cut:] {
				sim.Step(b)
			}
			if got := sim.Reports(); !sameReports(got, want) {
				t.Fatalf("program %d input %q cut %d: resumed kernel %v != oracle %v\n%s",
					i, input, cut, got, want, p.Source)
			}
		}
	}
	if counters == 0 || gates == 0 {
		t.Fatalf("generated programs held %d counters and %d gates; the special-element path went untested", counters, gates)
	}
}

// sameReports is DeepEqual that does not tell a nil log from an empty one.
func sameReports(a, b []automata.Report) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
