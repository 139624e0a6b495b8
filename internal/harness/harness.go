// Package harness regenerates the paper's evaluation tables (Tables 4, 5,
// and 6) over the five benchmarks, using the RAPID compiler, the
// hand-crafted designs, the regex baseline, the placement engine, and the
// tessellation optimizer.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/anml"
	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/regexcomp"
)

// Version tags the origin of a design in a table row.
type Version string

// Design versions compared by the evaluation.
const (
	VersionRAPID Version = "R"
	VersionHand  Version = "H"
	VersionRegex Version = "Re"
)

// Table4Row compares program size and STE usage (Table 4).
type Table4Row struct {
	Benchmark  string
	Version    Version
	LOC        int
	ANMLLOC    int
	STEs       int
	DeviceSTEs int
}

// Table5Row reports placement and routing statistics (Table 5).
type Table5Row struct {
	Benchmark    string
	Version      Version
	TotalBlocks  int
	ClockDivisor int
	STEUtil      float64
	MeanBRAlloc  float64
}

// Strategy is a Table 6 compilation flow.
type Strategy string

// Table 6 strategies.
const (
	StrategyBaseline    Strategy = "B"
	StrategyPrecompiled Strategy = "P"
	StrategyTessellated Strategy = "R"
)

// Table6Row reports the tessellation experiment (Table 6).
type Table6Row struct {
	Benchmark   string
	Strategy    Strategy
	ProblemSize int
	TotalBlocks int
	// PerBlock is the auto-tuned instances per block (tessellated rows
	// only; 0 otherwise).
	PerBlock     int
	STEUtil      float64
	MeanBRAlloc  float64
	GenerateTime time.Duration
	PRTime       time.Duration
	TotalTime    time.Duration
}

// designs returns the compiled artifacts of one benchmark at its Table 4/5
// instance size: the RAPID network, the hand network, and (when available)
// the regex network.
func designs(b *bench.Benchmark) (rapidNet, handNet, regexNet *automata.Network, rapidLOC, handLOC, regexLOC int, err error) {
	src, args := b.RAPID(b.DefaultInstances)
	prog, err := core.Load(src)
	if err != nil {
		return nil, nil, nil, 0, 0, 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		return nil, nil, nil, 0, 0, 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	rapidNet = res.Network
	rapidLOC = bench.LineCount(src)

	handNet, err = b.Hand(b.DefaultInstances)
	if err != nil {
		return nil, nil, nil, 0, 0, 0, fmt.Errorf("%s hand: %w", b.Name, err)
	}
	handLOC = bench.LineCount(b.HandSource)

	if b.Regex != nil {
		patterns := b.Regex(b.DefaultInstances)
		regexNet, err = regexcomp.CompileSet(patterns, b.Name+"-regex")
		if err != nil {
			return nil, nil, nil, 0, 0, 0, fmt.Errorf("%s regex: %w", b.Name, err)
		}
		regexLOC = len(patterns) // one pattern per line
	}
	return rapidNet, handNet, regexNet, rapidLOC, handLOC, regexLOC, nil
}

// Table4 regenerates the program size and STE usage comparison.
func Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, b := range bench.All() {
		rapidNet, handNet, regexNet, rapidLOC, handLOC, regexLOC, err := designs(b)
		if err != nil {
			return nil, err
		}
		add := func(v Version, net *automata.Network, loc int) error {
			top, err := net.Freeze()
			if err != nil {
				return err
			}
			lines, err := anml.LineCount(top)
			if err != nil {
				return err
			}
			rows = append(rows, Table4Row{
				Benchmark:  b.Name,
				Version:    v,
				LOC:        loc,
				ANMLLOC:    lines,
				STEs:       net.Stats().STEs,
				DeviceSTEs: place.DeviceNetwork(net).Stats().STEs,
			})
			return nil
		}
		if err := add(VersionRAPID, rapidNet, rapidLOC); err != nil {
			return nil, err
		}
		if err := add(VersionHand, handNet, handLOC); err != nil {
			return nil, err
		}
		if regexNet != nil {
			if err := add(VersionRegex, regexNet, regexLOC); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Table5 regenerates the placement and routing statistics.
func Table5() ([]Table5Row, error) {
	var rows []Table5Row
	for _, b := range bench.All() {
		rapidNet, handNet, regexNet, _, _, _, err := designs(b)
		if err != nil {
			return nil, err
		}
		add := func(v Version, net *automata.Network) error {
			p, err := place.Place(place.DeviceNetwork(net), place.Config{})
			if err != nil {
				return fmt.Errorf("%s %s: %w", b.Name, v, err)
			}
			rows = append(rows, Table5Row{
				Benchmark:    b.Name,
				Version:      v,
				TotalBlocks:  p.Metrics.TotalBlocks,
				ClockDivisor: p.Metrics.ClockDivisor,
				STEUtil:      p.Metrics.STEUtilization,
				MeanBRAlloc:  p.Metrics.MeanBRAlloc,
			})
			return nil
		}
		if err := add(VersionRAPID, rapidNet); err != nil {
			return nil, err
		}
		if err := add(VersionHand, handNet); err != nil {
			return nil, err
		}
		if regexNet != nil {
			if err := add(VersionRegex, regexNet); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Table6 regenerates the tessellation experiment. scale (0 < scale <= 1)
// shrinks the paper's problem sizes proportionally for quicker runs; use 1
// for the full-size experiment.
func Table6(scale float64) ([]Table6Row, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("harness: scale must be in (0, 1], have %f", scale)
	}
	var rows []Table6Row
	for _, b := range bench.All() {
		if b.FullBoardInstances == 0 {
			continue // Brill is fixed-size, as in the paper
		}
		n := int(float64(b.FullBoardInstances) * scale)
		if n < 1 {
			n = 1
		}

		// Baseline: generate the full-problem hand design, then run the
		// global element-granularity placement.
		genStart := time.Now()
		full, err := b.Hand(n)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", b.Name, err)
		}
		genTime := time.Since(genStart)
		prStart := time.Now()
		basePlacement, err := place.Place(place.DeviceNetwork(full), place.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s baseline place: %w", b.Name, err)
		}
		prTime := time.Since(prStart)
		rows = append(rows, Table6Row{
			Benchmark: b.Name, Strategy: StrategyBaseline, ProblemSize: n,
			TotalBlocks:  basePlacement.Metrics.TotalBlocks,
			STEUtil:      basePlacement.Metrics.STEUtilization,
			MeanBRAlloc:  basePlacement.Metrics.MeanBRAlloc,
			GenerateTime: genTime, PRTime: prTime, TotalTime: genTime + prTime,
		})

		// Pre-compiled: place one hand instance, then stamp copies at row
		// granularity.
		genStart = time.Now()
		unit, err := b.Hand(1)
		if err != nil {
			return nil, fmt.Errorf("%s precompiled: %w", b.Name, err)
		}
		genTime = time.Since(genStart)
		prStart = time.Now()
		_, stamped, err := place.PlaceStamped(place.DeviceNetwork(unit), n, place.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s precompiled place: %w", b.Name, err)
		}
		prTime = time.Since(prStart)
		rows = append(rows, Table6Row{
			Benchmark: b.Name, Strategy: StrategyPrecompiled, ProblemSize: n,
			TotalBlocks:  stamped.TotalBlocks,
			STEUtil:      stamped.STEUtilization,
			MeanBRAlloc:  stamped.MeanBRAlloc,
			GenerateTime: genTime, PRTime: prTime, TotalTime: genTime + prTime,
		})

		// RAPID tessellation: compile the single-instance unit from the
		// RAPID program and auto-tune the block tile.
		genStart = time.Now()
		src, args := b.RAPID(n)
		prog, err := core.Load(src)
		if err != nil {
			return nil, fmt.Errorf("%s tessellation: %w", b.Name, err)
		}
		spec, ok := prog.DetectTileable(args)
		if !ok {
			return nil, fmt.Errorf("%s tessellation: heuristic found no tile", b.Name)
		}
		if _, err := prog.Compile(spec.UnitArgs(args), nil); err != nil {
			return nil, fmt.Errorf("%s tessellation compile: %w", b.Name, err)
		}
		genTime = time.Since(genStart)
		prStart = time.Now()
		tess, err := prog.Tessellate(args)
		if err != nil {
			return nil, fmt.Errorf("%s tessellate: %w", b.Name, err)
		}
		prTime = time.Since(prStart)
		rows = append(rows, Table6Row{
			Benchmark: b.Name, Strategy: StrategyTessellated, ProblemSize: n,
			TotalBlocks:  tess.TotalBlocks,
			PerBlock:     tess.PerBlock,
			STEUtil:      tess.Metrics.STEUtilization,
			MeanBRAlloc:  tess.Metrics.MeanBRAlloc,
			GenerateTime: genTime, PRTime: prTime, TotalTime: genTime + prTime,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- printing

// FormatTable4 renders Table 4 rows in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 4: RAPID vs hand-crafted code — LOC and STE usage\n")
	fmt.Fprintf(&sb, "%-10s %-3s %8s %10s %8s %12s\n", "Benchmark", "V", "LOC", "ANML LOC", "STEs", "Device STEs")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-3s %8d %10d %8d %12d\n",
			r.Benchmark, r.Version, r.LOC, r.ANMLLOC, r.STEs, r.DeviceSTEs)
	}
	return sb.String()
}

// FormatTable5 renders Table 5 rows in the paper's layout.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: Placement and routing statistics\n")
	fmt.Fprintf(&sb, "%-10s %-3s %12s %12s %10s %14s\n",
		"Benchmark", "V", "Total Blocks", "Clock Div.", "STE Util.", "Mean BR Alloc.")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-3s %12d %12d %9.1f%% %13.1f%%\n",
			r.Benchmark, r.Version, r.TotalBlocks, r.ClockDivisor,
			100*r.STEUtil, 100*r.MeanBRAlloc)
	}
	return sb.String()
}

// FormatTable6 renders Table 6 rows in the paper's layout.
func FormatTable6(rows []Table6Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 6: Tessellation optimization (B=baseline, P=pre-compiled, R=RAPID tessellation)\n")
	fmt.Fprintf(&sb, "%-10s %-2s %12s %12s %14s %14s %14s\n",
		"Benchmark", "S", "Problem Size", "Total Blocks", "Generate", "Place&Route", "Total")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-2s %12d %12d %14s %14s %14s\n",
			r.Benchmark, r.Strategy, r.ProblemSize, r.TotalBlocks,
			r.GenerateTime.Round(time.Microsecond),
			r.PRTime.Round(time.Microsecond),
			r.TotalTime.Round(time.Microsecond))
	}
	return sb.String()
}
