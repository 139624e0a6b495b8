package lazydfa

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// addChain appends a word-matching STE chain to n and returns the last
// element.
func addChain(n *automata.Network, word []byte, start automata.StartKind) automata.ElementID {
	prev := automata.NoElement
	for i, ch := range word {
		kind := automata.StartNone
		if i == 0 {
			kind = start
		}
		id := n.AddSTE(charclass.Single(ch), kind)
		if prev != automata.NoElement {
			n.Connect(prev, id, automata.PortIn)
		}
		prev = id
	}
	return prev
}

func randomWord(rng *rand.Rand) []byte {
	word := make([]byte, 1+rng.Intn(4))
	for i := range word {
		word[i] = byte('a' + rng.Intn(3))
	}
	return word
}

// randomNetwork builds 1–4 independent components: plain reporting chains;
// chains feeding a reporting counter (targets up to 8), some with a second
// chain on the reset port — sometimes the same word, so reset and count
// arrive on one cycle; chain pairs feeding an AND gate; and a feedback
// loop, chain → counter → gate → STE, whose STE reports, resets the
// counter and sometimes counts it on the same cycle — exercising both
// tiers of the lazy DFA.
func randomNetwork(rng *rand.Rand) *automata.Network {
	n := automata.NewNetwork("rand")
	comps := 1 + rng.Intn(4)
	for c := 0; c < comps; c++ {
		start := automata.StartAllInput
		if rng.Intn(3) == 0 {
			start = automata.StartOfData
		}
		switch rng.Intn(4) {
		case 0:
			last := addChain(n, randomWord(rng), start)
			n.SetReport(last, c)
		case 1:
			word := randomWord(rng)
			last := addChain(n, word, start)
			ctr := n.AddCounter(1 + rng.Intn(8))
			n.Connect(last, ctr, automata.PortCount)
			n.SetReport(ctr, c)
			switch rng.Intn(3) {
			case 0:
				n.Connect(addChain(n, randomWord(rng), automata.StartAllInput), ctr, automata.PortReset)
			case 1:
				n.Connect(addChain(n, word[len(word)-1:], automata.StartAllInput), ctr, automata.PortReset)
			}
		case 2:
			a := addChain(n, randomWord(rng), start)
			b := addChain(n, randomWord(rng), automata.StartAllInput)
			g := n.AddGate(automata.GateAnd)
			n.Connect(a, g, automata.PortIn)
			n.Connect(b, g, automata.PortIn)
			n.SetReport(g, c)
		default:
			last := addChain(n, randomWord(rng), start)
			ctr := n.AddCounter(1 + rng.Intn(8))
			n.Connect(last, ctr, automata.PortCount)
			g := n.AddGate([]automata.GateOp{automata.GateOr, automata.GateNot, automata.GateNand}[rng.Intn(3)])
			n.Connect(ctr, g, automata.PortIn)
			tail := n.AddSTE(charclass.Single(byte('a'+rng.Intn(3))), automata.StartNone)
			n.Connect(g, tail, automata.PortIn)
			n.Connect(tail, ctr, automata.PortReset)
			if rng.Intn(2) == 0 {
				n.Connect(tail, ctr, automata.PortCount)
			}
			n.SetReport(tail, c)
		}
	}
	return n
}

func randomInput(rng *rand.Rand, size int) []byte {
	input := make([]byte, size)
	for i := range input {
		input[i] = byte('a' + rng.Intn(3))
	}
	return input
}

// TestCrossCheckRandom is the cross-check property: on randomized networks
// (including counter and gate designs, whose DFA states carry counter
// values) the lazy engine's report set equals both reference simulators',
// under the adaptive budget and at tiny fixed caps that evict on almost
// every intern.
func TestCrossCheckRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := randomNetwork(rng)
		sim, err := automata.NewSimulator(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, cap := range []int{0, 2, 3, 7} { // 0 = adaptive
			m, err := New(n, &Options{MaxCachedStates: cap})
			if err != nil {
				t.Fatalf("trial %d cap %d: %v", trial, cap, err)
			}
			for inTrial := 0; inTrial < 4; inTrial++ {
				input := randomInput(rng, rng.Intn(40))
				want := automata.Canonical(sim.Run(input))
				got := m.Run(input)
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cap %d input %q: lazy %v != sim %v", trial, cap, input, got, want)
				}
				fast, err := n.RunFast(input)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(automata.Canonical(fast), want) {
					t.Fatalf("trial %d input %q: fastsim diverged from sim", trial, input)
				}
			}
		}
	}
}

// TestTinyCapEvicts checks that a cap-2 cache actually thrashes (so the
// per-state eviction and in-edge repair paths are exercised) while still
// completing — the bounded-memory guarantee that replaces an ahead-of-time
// construction's abort. Whole-cache flushes must NOT happen: capacity
// pressure is absorbed one state at a time.
func TestTinyCapEvicts(t *testing.T) {
	n := automata.NewNetwork("w")
	last := addChain(n, []byte("abc"), automata.StartAllInput)
	n.SetReport(last, 0)
	m, err := New(n, &Options{MaxCachedStates: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run([]byte("ababcabcab"))
	want := []automata.Report{{Offset: 4, Code: 0}, {Offset: 7, Code: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reports = %v, want %v", got, want)
	}
	if m.Evictions() == 0 {
		t.Fatal("cap-2 cache should have evicted states")
	}
	if m.Demotions() != 0 {
		t.Fatalf("fixed-cap cache should never flush wholesale, got %d", m.Demotions())
	}
	if m.Demoted() {
		t.Fatal("fixed-cap matcher must not demote")
	}
	if m.CachedStates() > 2 {
		t.Fatalf("cache grew past cap: %d states", m.CachedStates())
	}
}

// TestCacheBudgetFitsCellOffsets checks that a cell can hold every row
// offset a cache may hand out: at the widest row, 256 groups, both a huge
// fixed cap and a huge byte cap are clamped so limit × ngroups ≤ cellIDMask.
func TestCacheBudgetFitsCellOffsets(t *testing.T) {
	n := automata.NewNetwork("wide")
	for b := 0; b < 256; b++ {
		n.SetReport(n.AddSTE(charclass.Single(byte(b)), automata.StartAllInput), b)
	}
	top, err := n.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	p := compile(top)
	if p.ngroups != 256 {
		t.Fatalf("ngroups = %d, want 256", p.ngroups)
	}
	for _, opts := range []*Options{{MaxCachedStates: 1 << 30}, {MaxCacheBytes: 1 << 40}} {
		start, limit, _ := cacheBudget(opts.withDefaults(), p)
		if limit*p.ngroups > int(cellIDMask) || start > limit || limit < 2 {
			t.Errorf("%+v: start %d limit %d × %d groups = %d, cellIDMask %d",
				*opts, start, limit, p.ngroups, limit*p.ngroups, cellIDMask)
		}
	}
}

// TestAdaptiveBudgetGrows checks the adaptive controller doubles the
// budget away from its small initial size when the working set does not
// fit, instead of thrashing forever.
func TestAdaptiveBudgetGrows(t *testing.T) {
	// Many distinct configurations: parallel anchored chains over a wide
	// alphabet produce a state per prefix combination.
	rng := rand.New(rand.NewSource(17))
	n := automata.NewNetwork("grow")
	for c := 0; c < 24; c++ {
		word := make([]byte, 6)
		for i := range word {
			word[i] = byte('a' + rng.Intn(8))
		}
		last := addChain(n, word, automata.StartAllInput)
		n.SetReport(last, c)
	}
	m, err := New(n, &Options{InitialCachedStates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheBudget() != 2 {
		t.Fatalf("initial budget = %d, want 2", m.CacheBudget())
	}
	input := make([]byte, 1<<16)
	for i := range input {
		input[i] = byte('a' + rng.Intn(8))
	}
	m.Run(input)
	if m.CacheBudget() <= 2 {
		t.Fatalf("budget never grew from 2 (evictions=%d)", m.Evictions())
	}
	if m.Demoted() {
		t.Fatal("budget growth should have absorbed the working set without demotion")
	}
}

// TestDemotion forces the cap so low that eviction cannot keep up and
// checks the matcher demotes to the bitset walk mid-stream with identical
// reports, then stays demoted (and report-correct) on later runs.
func TestDemotion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := automata.NewNetwork("demote")
	for c := 0; c < 24; c++ {
		word := make([]byte, 6)
		for i := range word {
			word[i] = byte('a' + rng.Intn(8))
		}
		last := addChain(n, word, automata.StartAllInput)
		n.SetReport(last, c)
	}
	// A 1-byte cache cap clamps the state budget to the floor of 16, far
	// below the working set, so every window thrashes at the limit.
	m, err := New(n, &Options{MaxCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 1<<17)
	for i := range input {
		input[i] = byte('a' + rng.Intn(8))
	}
	// The oracle is the naive Simulator: the demoted walk is the same
	// kernel as FastSimulator, so that comparison would prove nothing.
	raw, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	want := automata.Canonical(raw)
	got := m.Run(input)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("demoting run diverged: %d reports vs %d", len(got), len(want))
	}
	if !m.Demoted() || m.Demotions() != 1 {
		t.Fatalf("matcher should have demoted exactly once: demoted=%v demotions=%d", m.Demoted(), m.Demotions())
	}
	if m.Demotions() != 1 {
		t.Fatalf("demotion should count as the one whole-cache flush, got %d", m.Demotions())
	}
	if m.CachedStates() != 0 {
		t.Fatalf("demoted matcher should have released its cache, still holds %d states", m.CachedStates())
	}
	// Later runs go straight to the bitset walk and stay correct.
	got = m.Run(input)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-demotion run diverged")
	}
	if m.Demotions() != 1 {
		t.Fatalf("demotion must be sticky, fired %d times", m.Demotions())
	}
	// Clones inherit the demotion verdict.
	if c := m.Clone(); !c.Demoted() {
		t.Fatal("clone should inherit demotion")
	}
}

// TestPrefilterSkips checks the rest-state prefilter actually skips dead
// stretches on a separator-sparse input and that reports are unaffected.
func TestPrefilterSkips(t *testing.T) {
	n := automata.NewNetwork("skip")
	last := addChain(n, []byte("needle"), automata.StartAllInput)
	n.SetReport(last, 0)
	// The StartAllInput head is the separator-rearm shape: the rest
	// configuration is empty and 'n' is the only live byte, so dead
	// stretches between needles are skippable wholesale.
	input := make([]byte, 1<<16)
	for i := range input {
		input[i] = 'x'
	}
	copy(input[1000:], "needle")
	copy(input[60000:], "needle")
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run(input)
	want := []automata.Report{{Offset: 1005, Code: 0}, {Offset: 60005, Code: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reports = %v, want %v", got, want)
	}
	if m.PrefilterSkipped() == 0 {
		t.Fatal("prefilter never skipped on a 64 KiB dead stretch")
	}
	// Forced off: same reports, no skipping.
	off, err := New(n, &Options{DisablePrefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Run(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("prefilter-off reports = %v, want %v", got, want)
	}
	if off.PrefilterSkipped() != 0 {
		t.Fatal("disabled prefilter still skipped")
	}
}

// TestCacheWarmAcrossRuns checks transitions persist between streams and
// results stay identical.
func TestCacheWarmAcrossRuns(t *testing.T) {
	n := automata.NewNetwork("w")
	last := addChain(n, []byte("ab"), automata.StartAllInput)
	n.SetReport(last, 3)
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Run([]byte("xabxab"))
	states := m.CachedStates()
	if states == 0 {
		t.Fatal("no states cached")
	}
	second := m.Run([]byte("xabxab"))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm run diverged: %v != %v", second, first)
	}
	if m.CachedStates() != states {
		t.Fatalf("warm run grew cache: %d -> %d", states, m.CachedStates())
	}
}

// TestHybridTiers checks tier selection: pure designs get only the pure
// tier, counter designs only the counter tier, mixed designs both — and
// every tier is a lazy DFA that caches states.
func TestHybridTiers(t *testing.T) {
	pure := automata.NewNetwork("pure")
	pl := addChain(pure, []byte("ab"), automata.StartAllInput)
	pure.SetReport(pl, 0)
	m, err := New(pure, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasPureTier() || m.HasCounterTier() {
		t.Fatalf("pure design tiers: pure=%v counter=%v", m.HasPureTier(), m.HasCounterTier())
	}

	counter := automata.NewNetwork("counter")
	cl := addChain(counter, []byte("x"), automata.StartAllInput)
	ctr := counter.AddCounter(2)
	counter.Connect(cl, ctr, automata.PortCount)
	counter.SetReport(ctr, 0)
	m, err = New(counter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.HasPureTier() || !m.HasCounterTier() {
		t.Fatalf("counter design tiers: pure=%v counter=%v", m.HasPureTier(), m.HasCounterTier())
	}
	if m.Run([]byte("xxyx")); m.CachedStates() == 0 || m.Fills() == 0 {
		t.Fatalf("counter tier did not determinize: states=%d fills=%d", m.CachedStates(), m.Fills())
	}

	mixed := automata.NewNetwork("mixed")
	ml := addChain(mixed, []byte("ab"), automata.StartAllInput)
	mixed.SetReport(ml, 0)
	m2 := addChain(mixed, []byte("y"), automata.StartAllInput)
	ctr2 := mixed.AddCounter(1)
	mixed.Connect(m2, ctr2, automata.PortCount)
	mixed.SetReport(ctr2, 1)
	m, err = New(mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasPureTier() || !m.HasCounterTier() {
		t.Fatalf("mixed design tiers: pure=%v counter=%v", m.HasPureTier(), m.HasCounterTier())
	}
	// The latched counter reaches its target at offset 0 and stays active
	// every cycle thereafter; the "ab" chain reports at offset 2.
	got := m.Run([]byte("yab"))
	want := []automata.Report{{Offset: 0, Code: 1}, {Offset: 1, Code: 1}, {Offset: 2, Code: 0}, {Offset: 2, Code: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed reports = %v, want %v", got, want)
	}
}

// TestCloneIndependent checks clones share tables but not mutable state.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomNetwork(rng)
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := randomInput(rng, 64)
	want := m.Run(input)
	c := m.Clone()
	if c.CachedStates() != 0 {
		t.Fatal("clone should start with an empty cache")
	}
	got := c.Run(input)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clone diverged: %v != %v", got, want)
	}
}

// TestRunContextCancel checks a cancelled context aborts the run.
func TestRunContextCancel(t *testing.T) {
	n := automata.NewNetwork("w")
	last := addChain(n, []byte("ab"), automata.StartAllInput)
	n.SetReport(last, 0)
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := make([]byte, 100000)
	if _, err := m.RunAppend(ctx, input, nil); err == nil {
		t.Fatal("cancelled run should error")
	}
}

// TestStartOfDataAnchoring checks the first-symbol context is modeled as a
// distinct DFA state.
func TestStartOfDataAnchoring(t *testing.T) {
	n := automata.NewNetwork("anchor")
	last := addChain(n, []byte("ab"), automata.StartOfData)
	n.SetReport(last, 0)
	m, err := New(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Run([]byte("ab")); len(got) != 1 || got[0] != (automata.Report{Offset: 1, Code: 0}) {
		t.Fatalf("anchored run = %v", got)
	}
	if got := m.Run([]byte("xab")); len(got) != 0 {
		t.Fatalf("anchored matched shifted input: %v", got)
	}
}

// counterProduct builds four independent count-to-8 counters over one
// component set: counter i counts letter 'a'+i, reports while saturated,
// and is cleared by letter 'w'+i. Their joint value is the configuration,
// so random input walks far more states than a 16-state cache holds.
func counterProduct() *automata.Network {
	n := automata.NewNetwork("product")
	for i := 0; i < 4; i++ {
		ctr := n.AddCounter(8)
		n.Connect(n.AddSTE(charclass.Single(byte('a'+i)), automata.StartAllInput), ctr, automata.PortCount)
		n.Connect(n.AddSTE(charclass.Single(byte('w'+i)), automata.StartAllInput), ctr, automata.PortReset)
		n.SetReport(ctr, i)
	}
	return n
}

func counterProductInput(rng *rand.Rand, size int) []byte {
	input := make([]byte, size)
	for i := range input {
		input[i] = byte('a' + rng.Intn(4))
		if rng.Intn(8) == 0 {
			input[i] = byte('w' + rng.Intn(4))
		}
	}
	return input
}

// TestCounterTierDemotionKeepsCounters is the regression for the demotion
// hand-off: a counter tier thrashing at a tiny byte cap demotes mid-stream
// at an offset where counters are part-way to their targets, and the
// bitset walk must resume from those values, not from zero — every report
// after the hand-off depends on them. The same stream also runs at fixed
// caps 2/3/8, where per-state eviction re-derives configurations with
// live counters instead. The oracle is the naive Simulator.
func TestCounterTierDemotionKeepsCounters(t *testing.T) {
	n := counterProduct()
	input := counterProductInput(rand.New(rand.NewSource(41)), 1<<16)
	raw, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	want := automata.Canonical(raw)

	m, err := New(n, &Options{MaxCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Run(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("demoting run diverged: %d reports vs %d", len(got), len(want))
	}
	if !m.Demoted() || m.Demotions() != 1 || m.CachedStates() != 0 {
		t.Fatalf("counter tier should have demoted once and released its cache: demoted=%v demotions=%d states=%d",
			m.Demoted(), m.Demotions(), m.CachedStates())
	}
	if got := m.Run(input); !reflect.DeepEqual(got, want) {
		t.Fatal("post-demotion run diverged")
	}

	for _, cap := range []int{2, 3, 8} {
		m, err := New(n, &Options{MaxCachedStates: cap})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Run(input); !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: evicting run diverged: %d reports vs %d", cap, len(got), len(want))
		}
		if m.Evictions() == 0 || m.Demoted() {
			t.Fatalf("cap %d: evictions=%d demoted=%v, want evictions and no demotion", cap, m.Evictions(), m.Demoted())
		}
	}
}
