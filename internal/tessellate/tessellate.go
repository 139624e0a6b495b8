// Package tessellate implements the paper's auto-tuning tessellation
// optimization (Section 6).
//
// Instead of placing and routing an entire board-filling design, the
// compiler places a single repeated automaton at block granularity,
// iteratively increasing the number of copies per block until the block is
// as dense as resources and routing allow, and then tiles that block design
// across the board at load time. Placement cost is therefore independent of
// the problem size, which is what makes compilation orders of magnitude
// faster than the baseline and pre-compiled flows of Table 6.
package tessellate

import (
	"fmt"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/place"
)

// Result describes a tessellated design.
type Result struct {
	// Unit is the single-instance automaton as given (callers pass its
	// place.DeviceNetwork).
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
	Metrics place.Metrics
}

// Tessellate auto-tunes the per-block density for count instances of the
// unit design, placed as given, and returns the tiled result.
func Tessellate(unit *automata.Network, count int, cfg place.Config) (*Result, error) {
	if count <= 0 {
		return nil, fmt.Errorf("tessellate: instance count must be positive, have %d", count)
	}
	res := cfg.Res
	if res == (ap.Resources{}) {
		res = ap.FirstGeneration()
		cfg.Res = res
	}
	u := ap.UsageOf(unit)

	// A unit larger than one block tiles at its own multi-block
	// granularity.
	if !u.Fits(res) {
		unitPlacement, err := place.Place(unit, cfg)
		if err != nil {
			return nil, err
		}
		m := unitPlacement.Metrics
		total := m.TotalBlocks * count
		boardM := m
		boardM.TotalBlocks = total
		boardM.Elements *= count
		boardM.STEs *= count
		boardM.Counters *= count
		boardM.Gates *= count
		return &Result{
			Unit:        unit,
			BlockDesign: unit,
			PerBlock:    1,
			UnitBlocks:  m.TotalBlocks,
			Instances:   count,
			TotalBlocks: total,
			Metrics:     boardM,
		}, nil
	}

	// Auto-tune: the largest k copies that fit the block's resources and
	// routing capacity.
	kMax := maxByResources(u, res)
	if kMax > count {
		kMax = count
	}
	var blockDesign *automata.Network
	k := kMax
	for ; k > 1; k-- {
		candidate := tile(unit, k)
		if blockRoutable(candidate, res) {
			blockDesign = candidate
			break
		}
	}
	if blockDesign == nil {
		k = 1
		blockDesign = tile(unit, 1)
	}

	totalBlocks := (count + k - 1) / k
	m := boardMetrics(unit, blockDesign, k, count, totalBlocks, res)
	return &Result{
		Unit:        unit,
		BlockDesign: blockDesign,
		PerBlock:    k,
		UnitBlocks:  1,
		Instances:   count,
		TotalBlocks: totalBlocks,
		Metrics:     m,
	}, nil
}

// maxByResources returns how many copies of usage u fit in one block.
func maxByResources(u ap.BlockUsage, res ap.Resources) int {
	k := res.STEsPerBlock()
	if u.STEs > 0 {
		k = res.STEsPerBlock() / u.STEs
	}
	k = minNonZero(k, res.CountersPerBlock, u.Counters)
	k = minNonZero(k, res.BooleanPerBlock, u.Boolean)
	if k < 1 {
		k = 1
	}
	return k
}

func minNonZero(k, capacity, usage int) int {
	if usage == 0 {
		return k
	}
	if byRes := capacity / usage; byRes < k {
		return byRes
	}
	return k
}

// tile returns a network with k merged copies of the unit.
func tile(unit *automata.Network, k int) *automata.Network {
	out := automata.NewNetwork(unit.Name + "-tile")
	for i := 0; i < k; i++ {
		out.Merge(unit)
	}
	return out
}

// blockRoutable reports whether the design fits one block's routing
// capacity when placed into a single block.
func blockRoutable(design *automata.Network, res ap.Resources) bool {
	return crossRowLines(design, res) <= place.BRLinesPerBlock
}

// crossRowLines counts distinct source signals that cross rows when the
// design is packed into a single block in element order.
func crossRowLines(design *automata.Network, res ap.Resources) int {
	rowOf := make([]int, design.Len())
	steCount, specialCount := 0, 0
	design.Elements(func(e *automata.Element) {
		if e.Kind == automata.KindSTE {
			rowOf[e.ID] = steCount / res.STEsPerRow
			steCount++
		} else {
			rowOf[e.ID] = specialCount % res.RowsPerBlock
			specialCount++
		}
	})
	lines := make(map[automata.ElementID]bool)
	design.Elements(func(e *automata.Element) {
		for _, edge := range design.Outs(e.ID) {
			if rowOf[edge.From] != rowOf[edge.To] {
				lines[edge.From] = true
			}
		}
	})
	return len(lines)
}

// boardMetrics computes Table 5 statistics for the tiled board design.
func boardMetrics(unit, blockDesign *automata.Network, k, count, totalBlocks int, res ap.Resources) place.Metrics {
	us := unit.Stats()
	// BR allocation of the representative block.
	br := float64(crossRowLines(blockDesign, res)) / float64(place.BRLinesPerBlock)
	if br > 1 {
		br = 1
	}
	util := float64(us.STEs*count) / float64(totalBlocks*res.STEsPerBlock())
	if util > 1 {
		util = 1
	}
	return place.Metrics{
		TotalBlocks:    totalBlocks,
		ClockDivisor:   unit.ClockDivisor(),
		STEUtilization: util,
		MeanBRAlloc:    br,
		Elements:       unit.Len() * count,
		STEs:           us.STEs * count,
		Counters:       us.Counters * count,
		Gates:          us.Gates * count,
	}
}
