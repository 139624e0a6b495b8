package ap

import (
	"math"
	"testing"

	"repro/internal/automata"
	"repro/internal/charclass"
)

func TestFirstGenerationMatchesTable1(t *testing.T) {
	r := FirstGeneration()
	if got := r.TotalSTEs(); got != 1_572_864 {
		t.Errorf("TotalSTEs = %d, want 1572864", got)
	}
	if got := r.TotalCounters(); got != 24_576 {
		t.Errorf("TotalCounters = %d, want 24576", got)
	}
	if got := r.TotalBoolean(); got != 73_728 {
		t.Errorf("TotalBoolean = %d, want 73728", got)
	}
	if got := r.TotalBlocks(); got != 6_144 {
		t.Errorf("TotalBlocks = %d, want 6144", got)
	}
	if got := r.STEsPerBlock(); got != 256 {
		t.Errorf("STEsPerBlock = %d, want 256", got)
	}
}

func TestBlockUsageFits(t *testing.T) {
	r := FirstGeneration()
	ok := BlockUsage{STEs: 256, Counters: 4, Boolean: 12}
	if !ok.Fits(r) {
		t.Error("exact capacity should fit")
	}
	for _, u := range []BlockUsage{
		{STEs: 257},
		{Counters: 5},
		{Boolean: 13},
	} {
		if u.Fits(r) {
			t.Errorf("%+v should not fit", u)
		}
	}
	var acc BlockUsage
	acc.Add(BlockUsage{STEs: 10, Counters: 1, Boolean: 2})
	acc.Add(BlockUsage{STEs: 5, Counters: 1, Boolean: 1})
	if acc != (BlockUsage{STEs: 15, Counters: 2, Boolean: 3}) {
		t.Errorf("Add = %+v", acc)
	}
}

func TestUsageOf(t *testing.T) {
	n := automata.NewNetwork("u")
	a := n.AddSTE(charclass.Single('a'), automata.StartAllInput)
	c := n.AddCounter(2)
	g := n.AddGate(automata.GateAnd)
	n.Connect(a, c, automata.PortCount)
	n.Connect(c, g, automata.PortIn)
	u := UsageOf(n)
	if u != (BlockUsage{STEs: 1, Counters: 1, Boolean: 1}) {
		t.Fatalf("UsageOf = %+v", u)
	}
}

func TestBoardClockDivisorAndRuntime(t *testing.T) {
	if rt := RuntimeSeconds(SymbolRate, 1); rt != 1 {
		t.Fatalf("one second of symbols at divisor 1 = %vs, want 1s", rt)
	}
	if rt := RuntimeSeconds(SymbolRate, 2); rt != 2 {
		t.Fatalf("one second of symbols at divisor 2 = %vs, want 2s", rt)
	}
}

func TestRuntimeLinearInStreamLength(t *testing.T) {
	r1 := RuntimeSeconds(1_000_000, 1)
	r2 := RuntimeSeconds(2_000_000, 1)
	if diff := r2 - 2*r1; math.Abs(diff) > 1e-6 {
		t.Fatalf("runtime not linear: %vs vs %vs", r1, r2)
	}
}
