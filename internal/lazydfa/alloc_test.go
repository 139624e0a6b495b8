package lazydfa_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lazydfa"
)

// TestWarmRunAppendAllocatesNothing: once a matcher is warm, a stream run
// into a report buffer large enough for it allocates nothing on any paper
// design — every step is a cache hit and the reports land in place. The
// streams are 64 KiB, so they take the segment walk, whose lane reports,
// end configurations and cut checks reuse the matcher's scratch.
func TestWarmRunAppendAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for _, p := range compilePaperTiers(t, paperDesigns(), 64<<10) {
		buf := make([]automata.Report, 0, 2*len(p.lazy.Run(p.input)))
		hits := p.lazy.SpeculationHits()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := p.lazy.RunAppend(ctx, p.input, buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm RunAppend allocated %.1f times per run, want 0", p.name, allocs)
		}
		if p.lazy.SpeculationHits() == hits {
			t.Errorf("%s: the warm 64 KiB runs met no speculative segment", p.name)
		}
	}
}

// TestColdCloneAllocsPerState: a cold clone refilling its cache over
// MOTOMATA-4 traffic pays less than one allocation per state it interns.
// State metadata lives in slabs (values, one configuration slab, carved
// in-edge lists) and a state is keyed by its configuration in place, so
// what remains is amortized growth: ≈ 0.34 per state.
func TestColdCloneAllocsPerState(t *testing.T) {
	const perStateBound = 1
	d := tierDesign{"motomata-4", bench.Motomata(), 4}
	p := compilePaperTiers(t, []tierDesign{d}, 64<<10)[0]
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = d.app.Input(rng, 64<<10)
	}
	ctx := context.Background()
	buf := make([]automata.Report, 0, 1<<16)
	var states int
	allocs := testing.AllocsPerRun(3, func() {
		c := p.lazy.Clone()
		for _, in := range inputs {
			buf, _ = c.RunAppend(ctx, in, buf[:0])
		}
		states = c.CachedStates()
	})
	if states == 0 {
		t.Fatal("cold clone interned no states")
	}
	if perState := allocs / float64(states); perState > perStateBound {
		t.Errorf("%s: cold clone allocated %.0f times for %d states = %.2f per state, bound %d",
			d.name, allocs, states, perState, perStateBound)
	} else {
		t.Logf("%s: %.0f allocations / %d states = %.2f per state", d.name, allocs, states, perState)
	}
}

// TestSetupAllocs holds set-up to a fixed allocation count: building the
// lazy DFA's tables for arm-32 and gappy-32, and the device optimiser on
// gappy-32. Each bound is the count measured once the tier split cut its
// sub-topologies straight from the frozen arrays and the optimiser worked
// on one copy with its merge keys in a slab (68 and 55–57), and once its
// folds redirected a neighbour's edge in place instead of growing the
// neighbour's list (3 242), plus 10 %. The optimiser's bound was 8 714 for
// 7 922 before that fold; before the slab the bounds were 122, 125 and
// 70 651 (counts 111, 114 and 64 229); before the symbol partition refined once per
// distinct class and compact cut edge lists from flat arrays, this test
// counted 187 945, 142 896 and 199 245.
func TestSetupAllocs(t *testing.T) {
	arm, gappy := scanNetwork(t, bench.ARM(), 32), scanNetwork(t, bench.Gappy(), 32)
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"lazydfa.New arm-32", 75, func() { lazydfa.New(arm, nil) }},
		{"lazydfa.New gappy-32", 63, func() { lazydfa.New(gappy, nil) }},
		{"OptimizeForDevice(16) gappy-32", 3566, func() { gappy.OptimizeForDevice(16) }},
	} {
		allocs := testing.AllocsPerRun(3, c.run)
		t.Logf("%s: %.0f allocations (bound %.0f)", c.name, allocs, c.bound)
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocations, bound %.0f", c.name, allocs, c.bound)
		}
	}
}

// scanNetwork compiles benchmark b's RAPID program at n instances.
func scanNetwork(tb testing.TB, b *bench.Benchmark, n int) *automata.Network {
	tb.Helper()
	src, args := b.RAPID(n)
	prog, err := core.Load(src)
	if err != nil {
		tb.Fatalf("%s: %v", b.Name, err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		tb.Fatalf("%s(%d): %v", b.Name, n, err)
	}
	return res.Network
}
