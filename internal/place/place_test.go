package place

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/charclass"
)

// chain builds an anchored literal chain reporting at its end.
func chain(word string) *automata.Network {
	n := automata.NewNetwork("chain")
	prev := automata.NoElement
	for i := 0; i < len(word); i++ {
		start := automata.StartNone
		if i == 0 {
			start = automata.StartAllInput
		}
		id := n.AddSTE(charclass.Single(word[i]), start)
		if prev != automata.NoElement {
			n.Connect(prev, id, automata.PortIn)
		}
		prev = id
	}
	n.SetReport(prev, 0)
	return n
}

// manyChains merges n distinct chains of the given length.
func manyChains(n, length int) *automata.Network {
	out := automata.NewNetwork("many")
	word := make([]byte, length)
	for i := 0; i < n; i++ {
		for j := range word {
			word[j] = byte('a' + (i+j)%26)
		}
		out.Merge(chain(string(word)))
	}
	return out
}

func TestPlaceSmallChainOneBlock(t *testing.T) {
	p, err := Place(chain("abcdefgh"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	if m.TotalBlocks != 1 {
		t.Fatalf("blocks = %d, want 1", m.TotalBlocks)
	}
	if m.ClockDivisor != 1 {
		t.Fatalf("divisor = %d, want 1", m.ClockDivisor)
	}
	if m.STEUtilization <= 0 || m.STEUtilization > 1 {
		t.Fatalf("utilization = %f", m.STEUtilization)
	}
	// A short chain fits in one row: no BR lines.
	if m.MeanBRAlloc != 0 {
		t.Fatalf("BR alloc = %f, want 0 for single-row chain", m.MeanBRAlloc)
	}
}

func TestPlaceLongChainUsesBRLines(t *testing.T) {
	// 40 STEs → 3 rows → cross-row lines > 0.
	p, err := Place(chain("abcdefghijklmnopqrstuvwxyzabcdefghijklmn"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Metrics.MeanBRAlloc <= 0 {
		t.Fatal("multi-row chain should consume BR lines")
	}
	if p.Metrics.TotalBlocks != 1 {
		t.Fatalf("blocks = %d, want 1", p.Metrics.TotalBlocks)
	}
}

func TestPlaceManyChainsFillsBlocks(t *testing.T) {
	// 100 chains × 20 STEs = 2000 STEs → at least 8 blocks. Placed as
	// given: the generated chains repeat every 26 patterns, which
	// DeviceNetwork would legitimately merge.
	p, err := Place(manyChains(100, 20), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	if m.TotalBlocks < 8 {
		t.Fatalf("blocks = %d, want >= 8", m.TotalBlocks)
	}
	// First-fit-decreasing should pack with good utilization.
	if m.STEUtilization < 0.6 {
		t.Fatalf("utilization = %f, want >= 0.6", m.STEUtilization)
	}
	// Every element must be assigned to a valid block.
	for id, b := range p.BlockOf {
		if b < -1 || b >= m.TotalBlocks {
			t.Fatalf("element %d in invalid block %d", id, b)
		}
	}
}

func TestPlaceRespectsCapacities(t *testing.T) {
	p, err := Place(manyChains(50, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := ap.FirstGeneration()
	usage := make(map[int]*ap.BlockUsage)
	top := p.Network.MustFreeze() // Place froze it; this is the cached topology
	for id := automata.ElementID(0); id < automata.ElementID(top.Len()); id++ {
		b := p.BlockOf[id]
		if b < 0 {
			continue
		}
		if usage[b] == nil {
			usage[b] = &ap.BlockUsage{}
		}
		switch top.Kind(id) {
		case automata.KindSTE:
			usage[b].STEs++
		case automata.KindCounter:
			usage[b].Counters++
		default:
			usage[b].Boolean++
		}
	}
	for b, u := range usage {
		if !u.Fits(res) {
			t.Fatalf("block %d overflows: %+v", b, *u)
		}
	}
}

func TestPlaceWithCountersAndGates(t *testing.T) {
	n := automata.NewNetwork("cg")
	a := n.AddSTE(charclass.Single('a'), automata.StartAllInput)
	c := n.AddCounter(3)
	g := n.AddGate(automata.GateAnd)
	inv := n.AddGate(automata.GateNot)
	n.Connect(a, c, automata.PortCount)
	n.Connect(c, inv, automata.PortIn)
	n.Connect(a, g, automata.PortIn)
	n.Connect(inv, g, automata.PortIn)
	n.SetReport(g, 0)
	p, err := Place(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	if m.Counters != 1 || m.Gates != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.ClockDivisor != 2 {
		t.Fatalf("divisor = %d, want 2 (counter feeds gate)", m.ClockDivisor)
	}
}

func TestPlaceBroadcastReplication(t *testing.T) {
	// A tracker-like STE fanning out to 200 chains must not force
	// everything into one giant component.
	n := automata.NewNetwork("bc")
	tracker := n.AddSTE(charclass.Single(0xFF), automata.StartAllInput)
	for i := 0; i < 200; i++ {
		first := n.AddSTE(charclass.Single(byte('a'+i%26)), automata.StartOfData)
		second := n.AddSTE(charclass.Single('z'), automata.StartNone)
		n.Connect(tracker, first, automata.PortIn)
		n.Connect(first, second, automata.PortIn)
		n.SetReport(second, i)
	}
	p, err := Place(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 401 STEs (one replicated) → 2 blocks with capacity reserve.
	if p.Metrics.TotalBlocks < 2 {
		t.Fatalf("blocks = %d, want >= 2", p.Metrics.TotalBlocks)
	}
	if got := p.BlockOf[int(tracker)]; got != -1 {
		t.Fatalf("tracker should be replicated (block -1), got %d", got)
	}
}

func TestPlaceEmptyFails(t *testing.T) {
	if _, err := Place(automata.NewNetwork("empty"), Config{}); err == nil {
		t.Fatal("empty design should fail")
	}
}

func TestPlaceStamped(t *testing.T) {
	unit := chain("abcdefghij") // 10 STEs → 1 row
	_, m, err := PlaceStamped(unit, 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Row granularity: 16 rows per block → 16 instances per block → 7 blocks.
	if m.TotalBlocks != 7 {
		t.Fatalf("stamped blocks = %d, want 7", m.TotalBlocks)
	}
	if m.STEs != 1000 {
		t.Fatalf("stamped STEs = %d, want 1000", m.STEs)
	}
	// Stamping wastes partial rows: utilization = 1000/(7×256) ≈ 0.558.
	if m.STEUtilization < 0.5 || m.STEUtilization > 0.6 {
		t.Fatalf("stamped utilization = %f", m.STEUtilization)
	}
}

func TestPlaceStampedWorseThanBaseline(t *testing.T) {
	// The baseline packs at element granularity and should use no more
	// blocks than row-granularity stamping of the same design.
	unitWord := "abcdefghijklmnopq" // 17 STEs → 2 rows stamped (32 slots)
	const count = 64
	big := automata.NewNetwork("big")
	for i := 0; i < count; i++ {
		big.Merge(chain(unitWord))
	}
	baseline, err := Place(big, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, stamped, err := PlaceStamped(chain(unitWord), count, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Metrics.TotalBlocks > stamped.TotalBlocks {
		t.Fatalf("baseline %d blocks > stamped %d blocks", baseline.Metrics.TotalBlocks, stamped.TotalBlocks)
	}
}

func TestMetricsBounds(t *testing.T) {
	p, err := Place(manyChains(30, 10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	if m.STEUtilization < 0 || m.STEUtilization > 1 {
		t.Fatalf("utilization out of range: %f", m.STEUtilization)
	}
	if m.MeanBRAlloc < 0 || m.MeanBRAlloc > 1 {
		t.Fatalf("BR alloc out of range: %f", m.MeanBRAlloc)
	}
}

func TestPlacePhysicalBlocksIdentityWithoutDefects(t *testing.T) {
	p, err := Place(manyChains(30, 10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PhysicalBlocks) != p.Metrics.TotalBlocks {
		t.Fatalf("physical mapping covers %d blocks, want %d", len(p.PhysicalBlocks), p.Metrics.TotalBlocks)
	}
	for logical, phys := range p.PhysicalBlocks {
		if phys != logical {
			t.Fatalf("defect-free board: logical %d → physical %d, want identity", logical, phys)
		}
	}
}

// TestPlaceInsufficientCapacityAfterDefects: a board left with two usable
// blocks (an 8-block board with 6 retired, expressed as MaxBlocks) cannot
// hold a multi-block design; expect the typed capacity error, whose
// message names the blocks needed and the blocks the board has.
func TestPlaceInsufficientCapacityAfterDefects(t *testing.T) {
	_, err := Place(manyChains(100, 20), Config{MaxBlocks: 2})
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CapacityError", err)
	}
	if ce.Total != 2 || ce.Needed <= ce.Total {
		t.Fatalf("capacity error fields = %+v", ce)
	}
	if want := fmt.Sprintf("needs %d blocks but the board has 2", ce.Needed); !strings.Contains(ce.Error(), want) {
		t.Fatalf("error %q does not say %q", ce, want)
	}
}

func TestPlaceMaxBlocksCapsBoard(t *testing.T) {
	_, err := Place(manyChains(100, 20), Config{MaxBlocks: 1})
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CapacityError", err)
	}
	if ce.Total != 1 || ce.Needed <= ce.Total {
		t.Fatalf("capacity error fields = %+v", ce)
	}
}
