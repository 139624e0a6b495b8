// Package ap models Micron's Automata Processor (AP) board: its hierarchical
// resource organization (Table 1 of the paper), its nominal symbol rate,
// and the defective blocks placement routes around.
//
// The AP is a memory-derived MISD architecture. State transition elements
// (STEs) occupy columns of an SDRAM array; a reconfigurable routing matrix
// carries activation signals between them. Two STEs form a group-of-two
// (GoT); eight GoTs plus a special-purpose element form a row; sixteen rows
// form a block; 96 blocks form a half-core; a chip holds two half-cores with
// no routing between them; a first-generation board carries 32 chips.
//
// Physical silicon is unavailable, so this package provides the resource
// model the placement engine packs designs into. A placed design runs on
// the automata simulator (the device backend), and its runtime estimate
// is the symbol rate scaled by the clock divisor the design imposes.
package ap

import "repro/internal/automata"

// Resources describes the capacity hierarchy of an AP board.
type Resources struct {
	STEsPerRow        int
	RowsPerBlock      int
	CountersPerBlock  int
	BooleanPerBlock   int
	BlocksPerHalfCore int
	HalfCoresPerChip  int
	ChipsPerBoard     int
}

// FirstGeneration returns the resource configuration of the first-generation
// AP board (Table 1): 1,572,864 STEs, 24,576 counters, 73,728 boolean
// elements, 6,144 blocks across 32 chips.
func FirstGeneration() Resources {
	return Resources{
		STEsPerRow:        16,
		RowsPerBlock:      16,
		CountersPerBlock:  4,
		BooleanPerBlock:   12,
		BlocksPerHalfCore: 96,
		HalfCoresPerChip:  2,
		ChipsPerBoard:     32,
	}
}

// STEsPerBlock returns the STE capacity of one block.
func (r Resources) STEsPerBlock() int { return r.STEsPerRow * r.RowsPerBlock }

// BlocksPerChip returns the number of blocks on one chip.
func (r Resources) BlocksPerChip() int { return r.BlocksPerHalfCore * r.HalfCoresPerChip }

// TotalBlocks returns the number of blocks on the board.
func (r Resources) TotalBlocks() int { return r.BlocksPerChip() * r.ChipsPerBoard }

// TotalSTEs returns the STE capacity of the board.
func (r Resources) TotalSTEs() int { return r.TotalBlocks() * r.STEsPerBlock() }

// TotalCounters returns the counter capacity of the board.
func (r Resources) TotalCounters() int { return r.TotalBlocks() * r.CountersPerBlock }

// TotalBoolean returns the boolean-element capacity of the board.
func (r Resources) TotalBoolean() int { return r.TotalBlocks() * r.BooleanPerBlock }

// SymbolRate is the nominal symbol-processing rate of the first-generation
// AP at clock divisor 1: one 8-bit symbol per cycle at 133 MHz.
const SymbolRate = 133_000_000 // symbols per second

// RuntimeSeconds returns the wall-clock seconds the AP needs to stream the
// given number of symbols through a design that imposes clockDivisor: the
// board shares one clock, and execution is linear in the stream length
// (Section 7).
func RuntimeSeconds(symbols, clockDivisor int) float64 {
	return float64(symbols*clockDivisor) / SymbolRate
}

// BlockUsage summarizes the resources a design consumes within one block.
type BlockUsage struct {
	STEs     int
	Counters int
	Boolean  int
}

// Fits reports whether the usage is within the per-block capacity of r.
func (u BlockUsage) Fits(r Resources) bool {
	return u.STEs <= r.STEsPerBlock() &&
		u.Counters <= r.CountersPerBlock &&
		u.Boolean <= r.BooleanPerBlock
}

// Add accumulates other into u.
func (u *BlockUsage) Add(other BlockUsage) {
	u.STEs += other.STEs
	u.Counters += other.Counters
	u.Boolean += other.Boolean
}

// UsageOfKind returns the per-block resource footprint of one element of
// kind k.
func UsageOfKind(k automata.Kind) BlockUsage {
	switch k {
	case automata.KindSTE:
		return BlockUsage{STEs: 1}
	case automata.KindCounter:
		return BlockUsage{Counters: 1}
	default:
		return BlockUsage{Boolean: 1}
	}
}

// UsageOf returns the per-block resource footprint of a whole network.
func UsageOf(n *automata.Network) BlockUsage {
	s := n.Stats()
	return BlockUsage{STEs: s.STEs, Counters: s.Counters, Boolean: s.Gates}
}
