package automata_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
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

// TestKernelStepWideConfigurations drives Kernel.Step directly — one
// configuration vector, enable words followed by packed counter values,
// stepped and swapped by the caller exactly as a lazy-DFA fill does — over
// all five paper benchmarks, and checks every cycle against the naive
// Simulator: the report flag and the cycle's report codes.
func TestKernelStepWideConfigurations(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(b.DefaultInstances)
			prog, err := core.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Compile(args, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := automata.NewSimulator(res.Network)
			if err != nil {
				t.Fatal(err)
			}
			top := res.Network.MustFreeze()
			k := top.Kernel()
			if wide := k.Words() > (top.Len()+63)/64; wide != !top.Pure() {
				t.Fatalf("Words() = %d for %d elements, pure=%v: counter words should follow the enable words exactly when there are counters",
					k.Words(), top.Len(), top.Pure())
			}
			config, next, active := make([]uint64, k.Words()), make([]uint64, k.Words()), make([]uint64, k.Words())
			input := b.Input(rand.New(rand.NewSource(5)), 1<<13)
			seen := 0
			for i, sym := range input {
				oracle.Step(sym)
				var want []int
				for _, r := range oracle.Reports()[seen:] {
					want = append(want, r.Code)
				}
				seen = len(oracle.Reports())
				sort.Ints(want)
				want = slices.Compact(want)

				reports := k.Step(config, i == 0, sym, active, next)
				config, next = next, config
				if reports != (len(want) > 0) {
					t.Fatalf("offset %d: kernel reports=%v, oracle codes %v", i, reports, want)
				}
				if got := k.ReportCodes(nil, active); !slices.Equal(got, want) {
					t.Fatalf("offset %d: kernel codes %v, oracle %v", i, got, want)
				}
			}
			if seen == 0 {
				t.Fatal("input produced no reports; nothing was compared")
			}
		})
	}
}
