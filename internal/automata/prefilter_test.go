package automata

import (
	"testing"

	"repro/internal/charclass"
)

// chainNet builds a sliding-window word matcher: a star state enabling the
// word's first STE, the paper's unanchored-search idiom.
func chainNet(word string) *Network {
	n := NewNetwork("chain")
	star := n.AddSTE(charclass.All(), StartAllInput)
	prev := star
	for i := 0; i < len(word); i++ {
		id := n.AddSTE(charclass.Single(word[i]), StartNone)
		n.Connect(prev, id, PortIn)
		prev = id
	}
	n.SetReport(prev, 7)
	return n
}

func TestExtractPrefilterStarChain(t *testing.T) {
	f := ExtractPrefilter(chainNet("abc").MustFreeze())
	if f == nil {
		t.Fatal("pure star chain should have facts")
	}
	if len(f.Rest) != 1 {
		t.Fatalf("rest = %v, want the single head STE", f.Rest)
	}
	want := charclass.Single('a')
	if !f.Live.Equal(want) {
		t.Fatalf("live = %v, want %v", f.Live, want)
	}
	if !f.ReportBytes.Equal(charclass.Single('c')) {
		t.Fatalf("report bytes = %v, want c", f.ReportBytes)
	}
}

func TestExtractPrefilterAnchored(t *testing.T) {
	// Fully start-anchored: once the thread dies, nothing revives it.
	n := NewNetwork("anchored")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.Connect(a, b, PortIn)
	n.SetReport(b, 0)
	f := ExtractPrefilter(n.MustFreeze())
	if f == nil {
		t.Fatal("anchored design should have facts")
	}
	if len(f.Rest) != 0 {
		t.Fatalf("rest = %v, want empty", f.Rest)
	}
	if !f.Live.IsEmpty() {
		t.Fatalf("live = %v, want empty (dead rest state)", f.Live)
	}
}

func TestExtractPrefilterSeparatorRearm(t *testing.T) {
	// ARM-style: a non-star StartAllInput separator STE re-arms the
	// matcher; the rest configuration is empty and only the separator is
	// live.
	n := NewNetwork("rearm")
	sep := n.AddSTE(charclass.Single(0xFF), StartAllInput)
	item := n.AddSTE(charclass.Single('x'), StartNone)
	n.Connect(sep, item, PortIn)
	n.SetReport(item, 1)
	f := ExtractPrefilter(n.MustFreeze())
	if f == nil {
		t.Fatal("separator design should have facts")
	}
	if len(f.Rest) != 0 {
		t.Fatalf("rest = %v, want empty (separator is not a star)", f.Rest)
	}
	if !f.Live.Equal(charclass.Single(0xFF)) {
		t.Fatalf("live = %v, want the separator alone", f.Live)
	}
}

func TestExtractPrefilterUnusable(t *testing.T) {
	withCounter := NewNetwork("counter")
	s := withCounter.AddSTE(charclass.Single('a'), StartAllInput)
	c := withCounter.AddCounter(2)
	withCounter.Connect(s, c, PortCount)
	withCounter.SetReport(c, 0)
	if ExtractPrefilter(withCounter.MustFreeze()) != nil {
		t.Fatal("counter network should have no facts")
	}

	reportingStar := NewNetwork("star-report")
	star := reportingStar.AddSTE(charclass.All(), StartAllInput)
	reportingStar.SetReport(star, 0)
	if ExtractPrefilter(reportingStar.MustFreeze()) != nil {
		t.Fatal("reporting star should have no facts (every byte is live)")
	}
}

// TestExtractPrefilterSoundness checks the defining property on the chain
// design: stepping the rest configuration on any non-live byte changes
// nothing and reports nothing, while live bytes do change it.
func TestExtractPrefilterSoundness(t *testing.T) {
	n := chainNet("ab")
	f := ExtractPrefilter(n.MustFreeze())
	if f == nil {
		t.Fatal("no facts")
	}
	sim, err := NewFastSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the simulator into the rest configuration with a dead byte.
	sim.Run([]byte{'z'})
	rest := sim.Snapshot()
	for b := 0; b < 256; b++ {
		sim.Restore(rest)
		before := len(sim.Reports())
		sim.Step(byte(b))
		after := sim.Snapshot()
		changed := !bitsetEqual(restEnabled(rest), restEnabled(after)) || len(sim.Reports()) != before
		if f.Live.Contains(byte(b)) != changed && !f.Live.Contains(byte(b)) {
			t.Fatalf("byte %q: dead per facts but changed the configuration", byte(b))
		}
	}
}

func restEnabled(st *SimState) bitset { return st.config }

func bitsetEqual(a, b bitset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
