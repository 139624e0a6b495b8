package place

import (
	"testing"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/charclass"
)

func TestTessellateDensity(t *testing.T) {
	unit := chain("abcdefghij") // 10 STEs
	r, err := Tessellate(unit, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 256/10 = 25 instances per block by resources; routing may reduce it.
	if r.PerBlock < 16 || r.PerBlock > 25 {
		t.Fatalf("PerBlock = %d, want within [16,25]", r.PerBlock)
	}
	wantBlocks := (1000 + r.PerBlock - 1) / r.PerBlock
	if r.TotalBlocks != wantBlocks {
		t.Fatalf("TotalBlocks = %d, want %d", r.TotalBlocks, wantBlocks)
	}
	if r.Metrics.STEUtilization < 0.7 {
		t.Fatalf("utilization = %f, want >= 0.7", r.Metrics.STEUtilization)
	}
	if got := r.BlockDesign.Stats().STEs; got != 10*r.PerBlock {
		t.Fatalf("block design STEs = %d, want %d", got, 10*r.PerBlock)
	}
}

// TestLoadBoard: the tiled footprint fits a first-generation board, and
// the block design loaded into each block still matches its pattern.
func TestLoadBoard(t *testing.T) {
	r, err := Tessellate(chain("abcdefghij"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if free := ap.FirstGeneration().TotalBlocks(); r.TotalBlocks < 1 || r.TotalBlocks > free {
		t.Fatalf("TotalBlocks = %d, want 1..%d", r.TotalBlocks, free)
	}
	sim, err := automata.NewFastSimulator(r.BlockDesign)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Run([]byte("xxabcdefghij"))) == 0 {
		t.Fatal("loaded block design should report")
	}
}

func TestTessellateBeatsStamping(t *testing.T) {
	unit := chain("abcdefghij")
	r, err := Tessellate(unit, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, stamped, err := PlaceStamped(unit, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBlocks > stamped.TotalBlocks {
		t.Fatalf("tessellation %d blocks > stamping %d blocks", r.TotalBlocks, stamped.TotalBlocks)
	}
}

func TestTessellateCounterUnit(t *testing.T) {
	// A unit with one counter is limited to 4 per block by counters.
	unit := automata.NewNetwork("cu")
	a := unit.AddSTE(charclass.Single('a'), automata.StartAllInput)
	c := unit.AddCounter(2)
	unit.Connect(a, c, automata.PortCount)
	unit.SetReport(c, 0)
	r, err := Tessellate(unit, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerBlock != 4 {
		t.Fatalf("PerBlock = %d, want 4 (counter capacity)", r.PerBlock)
	}
	if r.TotalBlocks != 25 {
		t.Fatalf("TotalBlocks = %d, want 25", r.TotalBlocks)
	}
}

func TestTessellateOversizedUnit(t *testing.T) {
	// A unit with 300 STEs cannot fit one block.
	big := automata.NewNetwork("big")
	prev := automata.NoElement
	for i := 0; i < 300; i++ {
		start := automata.StartNone
		if i == 0 {
			start = automata.StartAllInput
		}
		id := big.AddSTE(charclass.Single(byte('a'+i%26)), start)
		if prev != automata.NoElement {
			big.Connect(prev, id, automata.PortIn)
		}
		prev = id
	}
	big.SetReport(prev, 0)
	r, err := Tessellate(big, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.UnitBlocks < 2 {
		t.Fatalf("UnitBlocks = %d, want >= 2", r.UnitBlocks)
	}
	if r.TotalBlocks != r.UnitBlocks*10 {
		t.Fatalf("TotalBlocks = %d, want %d", r.TotalBlocks, r.UnitBlocks*10)
	}
}

func TestTessellateInstanceCountValidation(t *testing.T) {
	if _, err := Tessellate(chain("ab"), 0); err == nil {
		t.Fatal("zero instances should fail")
	}
}

func TestTessellateFewerInstancesThanDensity(t *testing.T) {
	r, err := Tessellate(chain("ab"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerBlock > 3 {
		t.Fatalf("PerBlock = %d exceeds instance count 3", r.PerBlock)
	}
	if r.TotalBlocks != 1 {
		t.Fatalf("TotalBlocks = %d, want 1", r.TotalBlocks)
	}
}

func TestTessellateRoutingLimit(t *testing.T) {
	// A unit with heavy cross-row structure (long chain of 20 STEs = 2
	// rows) consumes BR lines per copy; density must respect the 48-line
	// budget rather than raw STE capacity.
	unit := chain("abcdefghijklmnopqrst") // 20 STEs, crosses a row boundary
	r, err := Tessellate(unit, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerBlock < 1 || r.PerBlock > 12 {
		t.Fatalf("PerBlock = %d, want 1..12 (256/20)", r.PerBlock)
	}
	if r.Metrics.MeanBRAlloc > 1 {
		t.Fatalf("BR alloc = %f", r.Metrics.MeanBRAlloc)
	}
}

// TestMultiBlockUnitOneUtilization: a unit larger than one block reads the
// same on the tessellated and the stamped path. Each instance keeps its own
// blocks, so both report the unit placement's STE utilization, which counts
// the broadcast start STE's replica in every block but the first.
func TestMultiBlockUnitOneUtilization(t *testing.T) {
	// 321 STEs: a start STE fanning out to 40 chains of 8.
	unit := automata.NewNetwork("fan")
	start := unit.AddSTE(charclass.Single('s'), automata.StartAllInput)
	for c := 0; c < 40; c++ {
		prev := start
		for i := 0; i < 8; i++ {
			id := unit.AddSTE(charclass.Single(byte('a'+(c+i)%26)), automata.StartNone)
			unit.Connect(prev, id, automata.PortIn)
			prev = id
		}
		unit.SetReport(prev, c)
	}
	const count = 10
	one, err := Place(unit, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Metrics.TotalBlocks < 2 || one.BlockOf[int(start)] != -1 {
		t.Fatalf("unit placed on %d blocks, start STE in block %d: want a multi-block unit with a replicated start",
			one.Metrics.TotalBlocks, one.BlockOf[int(start)])
	}
	tess, err := Tessellate(unit, count)
	if err != nil {
		t.Fatal(err)
	}
	_, stamped, err := PlaceStamped(unit, count, Config{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := one.Metrics.TotalBlocks * count
	if tess.TotalBlocks != blocks || stamped.TotalBlocks != blocks {
		t.Fatalf("blocks: tessellated %d, stamped %d, want %d", tess.TotalBlocks, stamped.TotalBlocks, blocks)
	}
	want := one.Metrics.STEUtilization
	if tess.Metrics.STEUtilization != want || stamped.STEUtilization != want {
		t.Fatalf("STE utilization: tessellated %.4f, stamped %.4f, want the unit's %.4f",
			tess.Metrics.STEUtilization, stamped.STEUtilization, want)
	}
	if noReplicas := float64(321*count) / float64(blocks*ap.FirstGeneration().STEsPerBlock()); want <= noReplicas {
		t.Fatalf("utilization %.4f does not count the replicas (%.4f without them)", want, noReplicas)
	}
	if tess.Metrics != stamped {
		t.Fatalf("tessellated metrics %+v != stamped %+v", tess.Metrics, stamped)
	}
}
