package lazydfa_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lazydfa"
	"repro/internal/rapidgen"
)

// lazyVariants are the matcher configurations every differential test
// runs: tiny fixed caches that force per-state eviction on almost every
// intern, the adaptive default, and each of those with the prefilter
// forced on (default where facts exist) and off.
func lazyVariants() map[string]*lazydfa.Options {
	return map[string]*lazydfa.Options{
		"cap2":             {MaxCachedStates: 2},
		"cap2-noprefilter": {MaxCachedStates: 2, DisablePrefilter: true},
		"cap3":             {MaxCachedStates: 3},
		"cap3-noprefilter": {MaxCachedStates: 3, DisablePrefilter: true},
		"adaptive":         {},
		"adaptive-nopf":    {DisablePrefilter: true},
	}
}

// TestCacheEvictionBoundaries runs the lazy-DFA matcher at the tightest
// legal state-cache sizes — where eviction and lazy in-edge repair fire on
// almost every interned state — over counter-heavy generated programs,
// comparing every report against the naive oracle simulator, with the
// prefilter forced on and off.
func TestCacheEvictionBoundaries(t *testing.T) {
	cfg := rapidgen.DefaultConfig()
	cfg.MaxCounters = 2
	g := rapidgen.NewWithConfig(31, cfg)

	evictions := 0
	lazyTiers := 0
	for i := 0; i < 25; i++ {
		p := g.Program()
		prog, err := core.Load(p.Source)
		if err != nil {
			t.Fatalf("program %d does not load: %v", i, err)
		}
		res, err := prog.Compile(p.Args, nil)
		if err != nil {
			t.Fatalf("program %d does not compile: %v", i, err)
		}
		// The oracle is the naive Simulator (Network.Run): the lazy
		// tiers step through the same kernel as FastSimulator, so
		// comparing against that would prove nothing.
		var wants [][]automata.Report
		inputs := rapidgen.Inputs(p, 5)
		for _, input := range inputs {
			raw, err := res.Network.Run(input)
			if err != nil {
				t.Fatalf("program %d: oracle: %v", i, err)
			}
			wants = append(wants, automata.Canonical(raw))
		}

		for name, opts := range lazyVariants() {
			m, err := lazydfa.New(res.Network, opts)
			if err != nil {
				t.Fatalf("program %d %s: %v", i, name, err)
			}
			if m.HasPureTier() {
				lazyTiers++
			}
			for k, input := range inputs {
				want := wants[k]
				got := m.Run(input)
				if !slices.Equal(got, want) {
					t.Errorf("program %d %s input %q: lazy %v, oracle %v\n%s",
						i, name, input, got, want, p.Source)
				}
			}
			evictions += m.Evictions()
			if m.Demotions() != 0 {
				t.Errorf("program %d %s: whole-cache flush under per-state eviction", i, name)
			}
		}
	}
	if lazyTiers == 0 {
		t.Error("no generated program produced a lazy (counter-free) tier; the cache was never exercised")
	}
	if evictions == 0 {
		t.Error("no eviction occurred at the minimum cache size; boundary untested")
	}
}

// TestPaperBenchmarkParity runs all five paper benchmarks through every
// lazy-matcher variant (tiny evicting caches, adaptive budget, prefilter
// on/off) against the naive Simulator oracle (which shares no code with
// the kernel the lazy tiers step through), asserting identical
// (offset, code) report sets.
func TestPaperBenchmarkParity(t *testing.T) {
	const streamBytes = 1 << 15
	for _, b := range bench.All() {
		b := b
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
			input := b.Input(rand.New(rand.NewSource(97)), streamBytes)
			raw, err := res.Network.Run(input)
			if err != nil {
				t.Fatal(err)
			}
			want := automata.Canonical(raw)
			for name, opts := range lazyVariants() {
				m, err := lazydfa.New(res.Network, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Two passes: cold cache, then warm (or post-demotion).
				for pass := 0; pass < 2; pass++ {
					got := m.Run(input)
					if !slices.Equal(got, want) {
						t.Fatalf("%s pass %d: %d lazy reports vs %d oracle reports",
							name, pass, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestCounterProductStaysBounded is the counter tier's worst paper case:
// MOTOMATA with 32 motifs, whose independent counters multiply into more
// configurations than any cache should hold. The tier must fill its budget,
// thrash, demote mid-stream with the reports intact, and never have held
// more than the byte cap: the measured heap per cached state times the
// budget it reached stays under DefaultMaxCacheBytes.
func TestCounterProductStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 1281-element design over 768 KiB")
	}
	const motifs = 32
	b := bench.Motomata()
	src, args := b.RAPID(motifs)
	prog, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := b.Input(rand.New(rand.NewSource(97)), 768<<10)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := lazydfa.New(res.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(input[:32<<10])
	runtime.GC()
	runtime.ReadMemStats(&after)
	if m.Demoted() || m.CachedStates() < 1000 {
		t.Fatalf("32 KiB prefix: demoted=%v states=%d, want a growing cache", m.Demoted(), m.CachedStates())
	}
	perState := float64(after.HeapAlloc-before.HeapAlloc) / float64(m.CachedStates())

	offsets := map[int]bool{}
	for _, r := range m.Run(input) {
		offsets[r.Offset] = true
	}
	want := b.Oracle(input, motifs)
	if len(offsets) != len(want) {
		t.Fatalf("%d report offsets, oracle %d", len(offsets), len(want))
	}
	for _, off := range want {
		if !offsets[off] {
			t.Fatalf("oracle offset %d not reported", off)
		}
	}
	if !m.Demoted() || m.CachedStates() != 0 {
		t.Fatalf("product did not demote: demoted=%v states=%d evictions=%d", m.Demoted(), m.CachedStates(), m.Evictions())
	}
	if held := perState * float64(m.CacheBudget()); held > lazydfa.DefaultMaxCacheBytes {
		t.Fatalf("cache reached %d states at %.0f B each = %.1f MiB, over the %d MiB cap",
			m.CacheBudget(), perState, held/(1<<20), lazydfa.DefaultMaxCacheBytes>>20)
	}
	t.Logf("budget %d states × %.0f B = %.1f MiB; fills=%d evictions=%d", m.CacheBudget(), perState,
		perState*float64(m.CacheBudget())/(1<<20), m.Fills(), m.Evictions())
}
