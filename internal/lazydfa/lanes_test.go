package lazydfa

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automata"
)

// raggedInput is randomInput with runs of 'x', a byte no randomNetwork
// element accepts, so the prefilter's rest state is entered and skipped.
func raggedInput(rng *rand.Rand, size int) []byte {
	input := randomInput(rng, size)
	for i := 0; i < size; i++ {
		if rng.Intn(64) == 0 {
			for run := rng.Intn(256); run > 0 && i < size; run-- {
				input[i] = 'x'
				i++
			}
		}
	}
	return input
}

// raggedGroup draws a group of 2–9 streams whose lengths straddle the
// walk's boundaries (empty, one byte, a chunk ± 1 and 64 KiB), then 24
// short ones, so lanes refill while others are mid-stream and the start
// state is interned, possibly evicting, with every lane live.
func raggedGroup(rng *rand.Rand) [][]byte {
	sizes := []int{0, 1, automata.CancelCheckInterval - 1, automata.CancelCheckInterval,
		automata.CancelCheckInterval + 1, 64 << 10, 17, 300}
	group := make([][]byte, 2+rng.Intn(8))
	for s := range group {
		group[s] = raggedInput(rng, sizes[rng.Intn(len(sizes))])
	}
	for range 24 {
		group = append(group, raggedInput(rng, 1+rng.Intn(48)))
	}
	return group
}

// TestLanesMatchSingleWalk is the interleaved walk's differential property:
// on random networks (both tiers), ragged groups, the adaptive budget and
// fixed caps from Lanes+1 (every lane pinned, one slot left to evict) to 9,
// with the prefilter on and off, every stream's reports equal its single
// walk on a matcher of its own. The single walk is the same loop's one-lane
// case, so both sides also answer to the bitset FastSimulator of the same
// network.
func TestLanesMatchSingleWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := context.Background()
	var skipped, evictions int
	for trial := 0; trial < 40; trial++ {
		n := randomNetwork(rng)
		group := raggedGroup(rng)
		sim, err := automata.NewFastSimulator(n)
		if err != nil {
			t.Fatal(err)
		}
		wants := make([][]automata.Report, len(group))
		for s, in := range group {
			wants[s] = automata.Canonical(sim.Run(in))
		}
		for _, cap := range []int{0, Lanes + 1, Lanes + 2, 7, 8, 9} {
			for _, noPrefilter := range []bool{false, true} {
				opts := &Options{MaxCachedStates: cap, DisablePrefilter: noPrefilter}
				single, err := New(n, opts)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(n, opts)
				if err != nil {
					t.Fatal(err)
				}
				outs, err := m.RunGroup(ctx, group)
				if err != nil {
					t.Fatal(err)
				}
				for s, in := range group {
					want := single.Run(in)
					if !slices.Equal(outs[s], want) {
						t.Fatalf("trial %d cap %d noPrefilter %v stream %d (%d bytes): interleaved %d reports, single walk %d",
							trial, cap, noPrefilter, s, len(in), len(outs[s]), len(want))
					}
					if !slices.Equal(want, wants[s]) {
						t.Fatalf("trial %d cap %d noPrefilter %v stream %d (%d bytes): %d reports, the bitset simulator %d",
							trial, cap, noPrefilter, s, len(in), len(want), len(wants[s]))
					}
				}
				skipped += m.PrefilterSkipped()
				evictions += m.Evictions()
			}
		}
	}
	if skipped == 0 || evictions == 0 {
		t.Fatalf("vacuous: the interleaved walks skipped %d bytes and evicted %d states", skipped, evictions)
	}
}

// TestLanesDemotionKeepsCounters: a counter tier thrashing at a tiny byte
// cap demotes in mid-group, with lanes part-way through their streams and
// counters part-way to their targets. Each lane must resume on the bitset
// walk from its own configuration, counter values included, and the
// streams not yet started must run demoted. The oracle is the naive
// Simulator.
func TestLanesDemotionKeepsCounters(t *testing.T) {
	n := counterProduct()
	rng := rand.New(rand.NewSource(43))
	// The short second stream ends in the first chunk, so a refilled lane
	// is live at the demotion; six streams leave two unstarted.
	group := make([][]byte, 6)
	for s, size := range []int{64 << 10, 1000, 64 << 10, 48 << 10, 64 << 10, 30 << 10} {
		group[s] = counterProductInput(rng, size)
	}
	m, err := New(n, &Options{MaxCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.RunGroup(context.Background(), group)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Demoted() || m.Demotions() != 1 || m.CachedStates() != 0 {
		t.Fatalf("counter tier should have demoted once in mid-group: demoted=%v demotions=%d states=%d",
			m.Demoted(), m.Demotions(), m.CachedStates())
	}
	for s, in := range group {
		raw, err := n.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := automata.Canonical(raw); !slices.Equal(outs[s], want) {
			t.Fatalf("stream %d: %d reports after the demotion, want %d", s, len(outs[s]), len(want))
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// checks, so a cancel lands at a chosen chunk of a walk.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestLanesCancelMidGroup: a context that ends in mid-group stops every
// lane. RunGroup returns ctx.Err(), which the engine settles every stream
// of the group with, and each stream's partial run is a prefix of its
// single walk.
func TestLanesCancelMidGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := randomNetwork(rng)
	group := make([][]byte, 6)
	for s := range group {
		group[s] = randomInput(rng, 5*automata.CancelCheckInterval)
	}
	single, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.RunGroup(&cancelAfter{Context: context.Background(), n: 2}, group)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGroup under a context cancelled mid-group returned %v", err)
	}
	for s, in := range group {
		want := single.Run(in)
		if len(outs[s]) >= len(want) && len(want) > 0 || !slices.Equal(outs[s], want[:len(outs[s])]) {
			t.Fatalf("stream %d: %d partial reports are not a strict prefix of the single walk's %d", s, len(outs[s]), len(want))
		}
	}
}

// TestWarmGroupAllocatesNothing: once a matcher is warm, an interleaved
// group allocates nothing; each lane's reports land in the matcher's own
// scratch.
func TestWarmGroupAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 4; trial++ {
		n := randomNetwork(rng)
		group := make([][]byte, Lanes)
		for s := range group {
			group[s] = randomInput(rng, 8<<10)
		}
		m, err := New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		m.RunGroup(ctx, group)
		m.RunGroup(ctx, group)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.RunGroup(ctx, group); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("network %d: warm group allocated %.1f times per run, want 0", trial, allocs)
		}
	}
}
