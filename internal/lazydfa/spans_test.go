package lazydfa

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automata"
)

// runSpansAs walks input's spans with span k on ms[owner[k]], in span
// order, and then joins them on ms[0], the matcher that split the stream,
// with cut checks at most reach bytes deep. Every span is claimed before
// the join, so ms[0] walks none there.
func runSpansAs(ctx context.Context, ms []*Matcher, owner []int, input []byte, reach int) ([]automata.Report, error) {
	n := int64(len(input) / SpanBytes)
	ms[0].Split(ctx, input, int(n))
	for k := range n {
		ms[0].spans.next.Store((k+1)<<32 | k) // span k is the one left to claim
		ms[owner[k%int64(len(owner))]].HelpSpans(ms[0])
	}
	ms[0].spans.next.Store(n<<32 | n)
	outs, err := ms[0].runGroup(ctx, [][]byte{input}, reach)
	return outs[0], err
}

// TestSpansMatchUnsplit is the span walk's differential property: on
// random networks (both tiers) and the counter product, over streams of
// 2–4 spans, each span walked by one of 2–3 clones chosen at random, at
// the adaptive budget, fixed caps 5–9 (evictions) and, on two trials,
// caps 2 and 3 (too small for lanes, so no span walk stands and the
// splitter walks the stream on one cursor), with reach 1 KiB and 0 (every
// cut missed), the joined run equals RunUnsplit's, cold and warm.
func TestSpansMatchUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ctx := context.Background()
	span := Lanes * automata.CancelCheckInterval
	var hits, misses, evictions int
	for trial := 0; trial < 6; trial++ {
		n := randomNetwork(rng)
		input := raggedInput(rng, 2*span+rng.Intn(3*span))
		if trial%3 == 0 {
			n, input = counterProduct(), counterProductInput(rng, len(input))
		}
		caps := []int{0, 5, 6, 7, 8, 9}
		if trial%3 == 1 {
			caps = append(caps, 2, 3) // slow: nearly every step misses
		}
		for _, cap := range caps {
			opts := &Options{MaxCachedStates: cap}
			ref, err := New(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			wants, err := ref.RunUnsplit(ctx, [][]byte{input})
			if err != nil {
				t.Fatal(err)
			}
			want := wants[0]
			for _, reach := range []int{specReach, 0} {
				m, err := New(n, opts)
				if err != nil {
					t.Fatal(err)
				}
				ms := []*Matcher{m, m.Clone(), m.Clone()}[:2+rng.Intn(2)]
				for pass := 0; pass < 2; pass++ {
					owner := make([]int, 4)
					for k := range owner {
						owner[k] = rng.Intn(len(ms))
					}
					got, err := runSpansAs(ctx, ms, owner, input, reach)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d cap %d reach %d pass %d owners %v (%d bytes): %d reports, unsplit %d",
							trial, cap, reach, pass, owner, len(input), len(got), len(want))
					}
				}
				if reach == 0 && m.SpeculationHits() != 0 {
					t.Fatalf("trial %d: %d cuts met with reach 0", trial, m.SpeculationHits())
				}
				for _, c := range ms {
					hits += c.SpeculationHits()
					misses += c.SpeculationMisses()
					evictions += c.Evictions()
				}
			}
		}
	}
	if hits == 0 || misses == 0 || evictions == 0 {
		t.Fatalf("vacuous: %d cuts met, %d missed, %d states evicted", hits, misses, evictions)
	}
	t.Logf("%d cuts met, %d missed, %d states evicted", hits, misses, evictions)
}

// TestSpansHelperDemotes: a helper whose counter tier demotes part way
// through a span's segments, and one that no longer speculates, leave the
// tier to the splitter, which walks the stream on one cursor, wherever
// the helper's spans fall (a lone span among them, so no later claim of
// the helper's is what gives the demotion away); the joined run is still
// the naive Simulator's and the splitter neither demotes nor misses.
func TestSpansHelperDemotes(t *testing.T) {
	n := counterProduct()
	// Four spans of segments longer than a window, so the helper demotes
	// with its lanes part way through their segments.
	input := counterProductInput(rand.New(rand.NewSource(48)), 4*SpanBytes+3*SpanBytes/4)
	raw, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	want := automata.Canonical(raw)
	for _, owner := range [][]int{{1, 0, 1, 0}, {0, 1, 1, 1}, {1, 1, 1, 1}, {0, 0, 1, 0}} {
		m, err := New(n, &Options{MaxCachedStates: 64})
		if err != nil {
			t.Fatal(err)
		}
		thrash, err := New(n, &Options{MaxCacheBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Three thrashing windows, so the helper's next window demotes it.
		if thrash.Run(input[:3*automata.CancelCheckInterval]); thrash.Demotions() != 0 {
			t.Fatal("the helper demoted before its spans")
		}
		quiet := m.Clone()
		quiet.tiers[0].speculate = false
		for _, h := range []*Matcher{thrash, quiet} {
			got, err := runSpansAs(context.Background(), []*Matcher{m, h}, owner, input, specReach)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("owners %v: %d reports, want %d", owner, len(got), len(want))
			}
		}
		if thrash.Demotions() != 1 || m.Demotions() != 0 || m.SpeculationMisses() != 0 {
			t.Fatalf("owners %v: helper demotions %d, splitter demotions %d and misses %d; want 1, 0, 0",
				owner, thrash.Demotions(), m.Demotions(), m.SpeculationMisses())
		}
	}
}

// TestSpansCancel: a context that ends at any check of a split walk, in a
// span's lanes, a missed cut's fallback or the join, stops it with
// ctx.Err(), and the run is a prefix of the stream's reports; one that
// outlasts every check sees the whole run.
func TestSpansCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	n := randomNetwork(rng)
	input := randomInput(rng, 3*Lanes*automata.CancelCheckInterval+5)
	want := fastSet(t, n, input)
	for _, reach := range []int{specReach, 0} {
		for checks := 0; ; checks++ {
			m, err := New(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &cancelAfter{Context: context.Background(), n: checks}
			got, err := runSpansAs(ctx, []*Matcher{m, m.Clone()}, []int{0, 1}, input, reach)
			if err == nil {
				if !slices.Equal(got, want) || checks < 3 {
					t.Fatalf("reach %d: the run outlasting %d checks has %d reports, want %d", reach, checks, len(got), len(want))
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel after %d checks, reach %d: err %v", checks, reach, err)
			}
			// The check before the stream's last byte may leave no report
			// out, so the prefix need not be strict.
			if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("cancel after %d checks, reach %d: %d partial reports are not a prefix of the stream's %d",
					checks, reach, len(got), len(want))
			}
		}
	}
}

// TestSpansConcurrentHelpers: clones helping on their own goroutines claim
// spans from the shared counter while the splitter walks; whoever walks
// which span, the run is the unsplit one's, and a late helper, arriving
// after the splitter has finished, claims nothing.
func TestSpansConcurrentHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		n := randomNetwork(rng)
		input := raggedInput(rng, 2*Lanes*automata.CancelCheckInterval+rng.Intn(1<<16))
		m, err := New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := fastSet(t, n, input)
		helpers := []*Matcher{m.Clone(), m.Clone()}
		for pass := 0; pass < 4; pass++ {
			m.Split(ctx, input, len(input)/SpanBytes)
			left := make(chan int, len(helpers))
			for _, h := range helpers {
				go func() { left <- h.HelpSpans(m) }()
			}
			outs, err := m.RunGroup(ctx, [][]byte{input})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(outs[0], want) {
				t.Fatalf("trial %d pass %d: %d reports, want %d", trial, pass, len(outs[0]), len(want))
			}
			walked := 0
			for range helpers {
				walked += <-left
			}
			if walked > len(input)/SpanBytes {
				t.Fatalf("trial %d pass %d: helpers walked %d of %d spans", trial, pass, walked, len(input)/SpanBytes)
			}
			if h := helpers[0].HelpSpans(m); h != 0 {
				t.Fatalf("a late helper walked %d spans", h)
			}
		}
	}
}
