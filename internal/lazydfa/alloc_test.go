package lazydfa_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
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
		buf := make([]lazydfa.Report, 0, 2*len(p.lazy.Run(p.input)))
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
// MOTOMATA-4 traffic pays at most two allocations per state it interns.
// State metadata lives in slabs (values, one configuration slab, carved
// in-edge lists), so what remains per state is its key and amortized
// growth — not one allocation per metadata field.
func TestColdCloneAllocsPerState(t *testing.T) {
	const perStateBound = 2
	d := tierDesign{"motomata-4", bench.Motomata(), 4}
	p := compilePaperTiers(t, []tierDesign{d}, 64<<10)[0]
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = d.app.Input(rng, 64<<10)
	}
	ctx := context.Background()
	buf := make([]lazydfa.Report, 0, 1<<16)
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
