// Package ap models Micron's Automata Processor (AP) board: its hierarchical
// resource organization (Table 1 of the paper) and its lock-step execution
// of loaded homogeneous automata.
//
// The AP is a memory-derived MISD architecture. State transition elements
// (STEs) occupy columns of an SDRAM array; a reconfigurable routing matrix
// carries activation signals between them. Two STEs form a group-of-two
// (GoT); eight GoTs plus a special-purpose element form a row; sixteen rows
// form a block; 96 blocks form a half-core; a chip holds two half-cores with
// no routing between them; a first-generation board carries 32 chips.
//
// Physical silicon is unavailable, so this package provides a functional
// model: designs placed onto blocks by the placement engine are executed by
// the automata simulator, and the timing model accounts for the lock-step
// symbol rate and the clock divisor a design imposes.
package ap

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/automata"
)

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

// UsageOf returns the per-block resource footprint of a whole network.
func UsageOf(n *automata.Network) BlockUsage {
	s := n.Stats()
	return BlockUsage{STEs: s.STEs, Counters: s.Counters, Boolean: s.Gates}
}

// LoadedDesign is a network together with its block footprint, as produced
// by the placement engine or the tessellation loader.
type LoadedDesign struct {
	Network *automata.Network
	// Blocks is the number of board blocks the design occupies.
	Blocks int
	// ClockDivisor is the clock division the design imposes (1 or 2).
	ClockDivisor int
}

// Board is a functional model of a configured AP board: a set of loaded
// designs executed in lock-step against a single input stream.
type Board struct {
	res        Resources
	designs    []LoadedDesign
	blocksUsed int
}

// NewBoard returns an empty board with the given resource configuration.
func NewBoard(res Resources) *Board {
	return &Board{res: res}
}

// Resources returns the board's resource configuration.
func (b *Board) Resources() Resources { return b.res }

// BlocksUsed returns the number of blocks currently occupied.
func (b *Board) BlocksUsed() int { return b.blocksUsed }

// BlocksFree returns the number of unoccupied blocks.
func (b *Board) BlocksFree() int { return b.res.TotalBlocks() - b.blocksUsed }

// Load places a design onto the board, consuming its block footprint.
// It fails when the board lacks capacity.
func (b *Board) Load(d LoadedDesign) error {
	if d.Network == nil {
		return fmt.Errorf("ap: cannot load nil network")
	}
	if d.Blocks <= 0 {
		return fmt.Errorf("ap: design %q has non-positive block footprint %d", d.Network.Name, d.Blocks)
	}
	if d.ClockDivisor <= 0 {
		return fmt.Errorf("ap: design %q has invalid clock divisor %d", d.Network.Name, d.ClockDivisor)
	}
	if d.Blocks > b.BlocksFree() {
		return fmt.Errorf("ap: design %q needs %d blocks but only %d are free",
			d.Network.Name, d.Blocks, b.BlocksFree())
	}
	b.designs = append(b.designs, d)
	b.blocksUsed += d.Blocks
	return nil
}

// Clear removes all loaded designs.
func (b *Board) Clear() {
	b.designs = nil
	b.blocksUsed = 0
}

// ClockDivisor returns the divisor the board must run at: the maximum over
// loaded designs (the whole board shares one clock), or 1 when empty.
func (b *Board) ClockDivisor() int {
	div := 1
	for _, d := range b.designs {
		if d.ClockDivisor > div {
			div = d.ClockDivisor
		}
	}
	return div
}

// BoardReport is a report event attributed to the design that produced it.
type BoardReport struct {
	Design string
	automata.Report
}

// Run streams input through every loaded design and returns all report
// events in (offset, design) order. The device advances every design on
// the same symbol each cycle; since the designs share no state, simulating
// them one after another over the whole stream is observationally
// identical.
func (b *Board) Run(input []byte) ([]BoardReport, error) { return b.run(input, 1) }

// RunParallel is Run with the loaded designs simulated concurrently, up to
// GOMAXPROCS at a time. The result is identical to Run; on multi-design
// boards the wall-clock win approaches the worker count.
func (b *Board) RunParallel(input []byte) ([]BoardReport, error) {
	return b.run(input, runtime.GOMAXPROCS(0))
}

// run simulates each loaded design over input on the bitset kernel, at
// most workers at a time, and merges the reports by offset, then by
// design load order.
func (b *Board) run(input []byte, workers int) ([]BoardReport, error) {
	perDesign := make([][]automata.Report, len(b.designs))
	errs := make([]error, len(b.designs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, d := range b.designs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sim, err := automata.NewFastSimulator(d.Network)
			if err != nil {
				errs[i] = fmt.Errorf("ap: design %q: %w", d.Network.Name, err)
				return
			}
			perDesign[i] = sim.Run(input)
		}()
	}
	wg.Wait()
	var out []BoardReport
	for i, reports := range perDesign {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, r := range reports {
			out = append(out, BoardReport{Design: b.designs[i].Network.Name, Report: r})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out, nil
}

// EstimateRuntime returns the wall-clock time the physical AP would need to
// stream n symbols through the currently loaded configuration, given the
// nominal symbol rate and the board clock divisor. Execution is linear in
// the stream length (Section 7).
func (b *Board) EstimateRuntime(symbols int) time.Duration {
	div := b.ClockDivisor()
	seconds := float64(symbols) * float64(div) / float64(SymbolRate)
	return time.Duration(seconds * float64(time.Second))
}
