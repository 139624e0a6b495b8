package place

// Tessellation: the paper's auto-tuning tessellation optimization (Section
// 6). Instead of placing and routing an entire board-filling design, the
// compiler places a single repeated automaton at block granularity,
// raising the number of copies per block until the block is as dense as
// resources and routing allow, and then tiles that block design across the
// board at load time. Placement cost is therefore independent of the
// problem size, which is what makes compilation orders of magnitude faster
// than the baseline and pre-compiled flows of Table 6.

import (
	"fmt"

	"repro/internal/ap"
	"repro/internal/automata"
)

// Tessellation describes a tessellated design.
type Tessellation struct {
	// Unit is the single-instance automaton as given (callers pass its
	// DeviceNetwork).
	Unit *automata.Network
	// BlockDesign is the tiled block: PerBlock copies of Unit.
	BlockDesign *automata.Network
	// PerBlock is the auto-tuned number of instances per block (1 when
	// the unit itself spans multiple blocks).
	PerBlock int
	// UnitBlocks is the number of blocks one instance occupies (1 unless
	// the unit is larger than a block).
	UnitBlocks int
	// Instances is the requested instance count.
	Instances int
	// TotalBlocks is the board footprint of all instances.
	TotalBlocks int
	// Metrics are board-level Table 5 statistics for the tiled design.
	Metrics Metrics
}

// Tessellate auto-tunes the per-block density for count instances of the
// unit design, placed as given, and returns the tiled result.
func Tessellate(unit *automata.Network, count int) (*Tessellation, error) {
	if count <= 0 {
		return nil, fmt.Errorf("place: tessellate: instance count must be positive, have %d", count)
	}
	u := ap.UsageOf(unit)

	// A unit larger than one block tiles at its own multi-block
	// granularity, every instance on its own blocks: what PlaceStamped
	// does with it.
	if !u.Fits(firstGen) {
		unitPlacement, board, err := PlaceStamped(unit, count, Config{})
		if err != nil {
			return nil, err
		}
		return &Tessellation{
			Unit:        unit,
			BlockDesign: unit,
			PerBlock:    1,
			UnitBlocks:  unitPlacement.Metrics.TotalBlocks,
			Instances:   count,
			TotalBlocks: board.TotalBlocks,
			Metrics:     board,
		}, nil
	}

	// Auto-tune: the largest k copies that fit the block's resources and
	// routing capacity; a single copy is taken as it routes.
	k := limitByResource(firstGen.STEsPerBlock(), firstGen.STEsPerBlock(), u.STEs)
	k = limitByResource(k, firstGen.CountersPerBlock, u.Counters)
	k = limitByResource(k, firstGen.BooleanPerBlock, u.Boolean)
	k = max(1, min(k, count))
	var blockDesign *automata.Network
	var lines int
	for ; ; k-- {
		blockDesign = automata.NewNetwork(unit.Name + "-tile")
		for i := 0; i < k; i++ {
			blockDesign.Merge(unit)
		}
		top, err := blockDesign.Freeze()
		if err != nil {
			return nil, fmt.Errorf("place: tessellate: %w", err)
		}
		if _, lines = rowLayout(top, allElements(top), firstGen.RowsPerBlock, firstGen); lines <= BRLinesPerBlock || k == 1 {
			break
		}
	}

	us := unit.Stats()
	one := Metrics{
		ClockDivisor: unit.ClockDivisor(),
		Elements:     unit.Len(),
		STEs:         us.STEs,
		Counters:     us.Counters,
		Gates:        us.Gates,
		// BR allocation of the representative block.
		MeanBRAlloc: min(1, float64(lines)/float64(BRLinesPerBlock)),
	}
	totalBlocks := (count + k - 1) / k
	return &Tessellation{
		Unit:        unit,
		BlockDesign: blockDesign,
		PerBlock:    k,
		UnitBlocks:  1,
		Instances:   count,
		TotalBlocks: totalBlocks,
		Metrics:     one.scaled(count, totalBlocks),
	}, nil
}
