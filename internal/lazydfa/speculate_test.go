package lazydfa

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// fastSet is the canonical report set of the bitset walk over input.
func fastSet(t *testing.T, n *automata.Network, input []byte) []automata.Report {
	t.Helper()
	raw, err := n.RunFast(input)
	if err != nil {
		t.Fatal(err)
	}
	return automata.Canonical(raw)
}

// TestSpeculationMatchesBitset is the segment walk's differential property:
// on random networks (both tiers) and the counter product, over ragged
// streams of 16–116 KiB, so the cuts land anywhere, under the adaptive
// budget and fixed caps from Lanes+1 to 9, with the prefilter on and off,
// a lone stream's reports equal the bitset walk's, cold and warm. reach 0
// fails every cut, so the true walk finishes each segment itself.
func TestSpeculationMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	var hits, misses, skipped, evictions int
	for trial := 0; trial < 12; trial++ {
		n := randomNetwork(rng)
		if trial%6 == 0 {
			n = counterProduct()
		}
		input := raggedInput(rng, Lanes*automata.CancelCheckInterval+rng.Intn(100<<10))
		want := fastSet(t, n, input)
		for _, cap := range []int{0, Lanes + 1, Lanes + 2, 7, 9} {
			for _, noPrefilter := range []bool{false, true} {
				for _, reach := range []int{specReach, 0} {
					m, err := New(n, &Options{MaxCachedStates: cap, DisablePrefilter: noPrefilter})
					if err != nil {
						t.Fatal(err)
					}
					for pass := 0; pass < 2; pass++ {
						outs, err := m.runGroup(ctx, [][]byte{input}, reach)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(outs[0], want) {
							t.Fatalf("trial %d cap %d noPrefilter %v reach %d pass %d (%d bytes): %d reports, bitset walk %d",
								trial, cap, noPrefilter, reach, pass, len(input), len(outs[0]), len(want))
						}
					}
					if reach == 0 && m.SpeculationHits() != 0 {
						t.Fatalf("trial %d: %d cuts met with reach 0", trial, m.SpeculationHits())
					}
					hits += m.SpeculationHits()
					misses += m.SpeculationMisses()
					skipped += m.PrefilterSkipped()
					evictions += m.Evictions()
				}
			}
		}
	}
	if hits == 0 || misses == 0 || skipped == 0 || evictions == 0 {
		t.Fatalf("vacuous: %d cuts met, %d missed, %d bytes skipped, %d states evicted", hits, misses, skipped, evictions)
	}
	t.Logf("%d cuts met, %d missed, %d bytes skipped, %d states evicted", hits, misses, skipped, evictions)
}

// TestSpeculationStopsWhenGuessNeverMeets: a counter with no reset and a
// target past the stream's length holds a count the guessed start, at
// zero, never reaches, so every cut of its tier misses. After
// specMissLimit misses in a row that tier stops speculating, and its clone
// inherits the verdict, while the pure tier beside it keeps meeting. The
// reports stay the bitset walk's throughout.
func TestSpeculationStopsWhenGuessNeverMeets(t *testing.T) {
	n := automata.NewNetwork("unbounded")
	ctr := n.AddCounter(1 << 20)
	n.Connect(n.AddSTE(charclass.Single('a'), automata.StartAllInput), ctr, automata.PortCount)
	n.SetReport(ctr, 0)
	n.SetReport(addChain(n, []byte("ab"), automata.StartAllInput), 1)
	m, err := New(n, &Options{MaxCachedStates: 64})
	if err != nil {
		t.Fatal(err)
	}
	pure, counter := m.tiers[0], m.tiers[1]
	rng := rand.New(rand.NewSource(5))
	for run := 0; run < 8; run++ {
		input := randomInput(rng, Lanes*automata.CancelCheckInterval)
		if got, want := m.Run(input), fastSet(t, n, input); !slices.Equal(got, want) {
			t.Fatalf("run %d: %d reports, bitset walk %d", run, len(got), len(want))
		}
	}
	// The run that reaches the limit still checks the rest of its cuts.
	misses := (specMissLimit + Lanes - 2) / (Lanes - 1) * (Lanes - 1)
	if counter.speculate || counter.specMisses != misses || counter.specHits != 0 {
		t.Fatalf("counter tier: speculate=%v after %d misses and %d hits, want off after %d misses",
			counter.speculate, counter.specMisses, counter.specHits, misses)
	}
	if !pure.speculate || pure.specHits != 8*(Lanes-1) {
		t.Fatalf("pure tier: speculate=%v with %d hits, want on with %d", pure.speculate, pure.specHits, 8*(Lanes-1))
	}
	if c := m.Clone(); c.tiers[1].speculate || !c.tiers[0].speculate {
		t.Fatal("a clone must inherit each tier's speculation verdict")
	}
}

// TestSpeculationDemotes: a counter tier thrashing at a tiny byte cap
// demotes while its segments are in flight. The speculative work is
// dropped, the stream runs again on the bitset walk from offset 0, and its
// reports are the naive Simulator's.
func TestSpeculationDemotes(t *testing.T) {
	n := counterProduct()
	input := counterProductInput(rand.New(rand.NewSource(44)), 64<<10)
	raw, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(n, &Options{MaxCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Run(input), automata.Canonical(raw); !slices.Equal(got, want) {
		t.Fatalf("%d reports after a demotion in the segment walk, want %d", len(got), len(want))
	}
	if m.Demotions() != 1 || m.CachedStates() != 0 || m.SpeculationHits()+m.SpeculationMisses() != 0 {
		t.Fatalf("the tier should have demoted once in the lane walk, before any cut was checked: demotions=%d states=%d hits=%d misses=%d",
			m.Demotions(), m.CachedStates(), m.SpeculationHits(), m.SpeculationMisses())
	}
}

// TestSpeculationCancel: a context that ends at any check of the segment
// walk, in the lanes or in a missed cut's fallback, stops it with
// ctx.Err(), and the partial run is a prefix of the stream's reports; one
// that outlasts every check sees the whole run.
func TestSpeculationCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := randomNetwork(rng)
	input := randomInput(rng, 5*Lanes*automata.CancelCheckInterval)
	want := fastSet(t, n, input)
	for _, reach := range []int{specReach, 0} {
		for checks := 0; ; checks++ {
			m, err := New(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := m.runGroup(&cancelAfter{Context: context.Background(), n: checks}, [][]byte{input}, reach)
			got := outs[0]
			if err == nil {
				if !slices.Equal(got, want) || checks < 5 {
					t.Fatalf("reach %d: the run outlasting %d checks has %d reports, want %d", reach, checks, len(got), len(want))
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel after %d checks, reach %d: err %v", checks, reach, err)
			}
			if len(got) >= len(want) && len(want) > 0 || !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("cancel after %d checks, reach %d: %d partial reports are not a strict prefix of the stream's %d",
					checks, reach, len(got), len(want))
			}
		}
	}
}
