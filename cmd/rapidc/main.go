// Command rapidc compiles a RAPID program into ANML, the design language of
// the Automata Processor tool chain.
//
// Usage:
//
//	rapidc -src program.rapid -args '[["rapid","tepid"]]' [-o design.anml]
//	       [-name network] [-optimize] [-stats] [-place] [-tessellate]
//
// Network arguments are a JSON array matching the network's parameters:
// strings become String values, integers int values, booleans bool values,
// and arrays nested arrays.
package main

import (
	"flag"
	"fmt"
	"os"

	rapid "repro"
)

func main() {
	var (
		srcPath    = flag.String("src", "", "RAPID source file (required)")
		argsJSON   = flag.String("args", "[]", "network arguments as a JSON array")
		outPath    = flag.String("o", "", "output ANML file (default stdout)")
		name       = flag.String("name", "rapid", "automata network name")
		optimize   = flag.Bool("optimize", false, "apply device optimizations before output")
		stats      = flag.Bool("stats", false, "print design statistics to stderr")
		doPlace    = flag.Bool("place", false, "run placement and routing, print statistics")
		tessellate = flag.Bool("tessellate", false, "run the auto-tuning tessellation optimization")
		dot        = flag.Bool("dot", false, "emit Graphviz DOT instead of ANML")
		witness    = flag.Bool("witness", false, "print a shortest input that triggers a report")
	)
	flag.Parse()
	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "rapidc: -src is required")
		flag.Usage()
		os.Exit(2)
	}

	prog, err := rapid.ParseFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	args, err := rapid.ValuesFromJSON([]byte(*argsJSON))
	if err != nil {
		fatal(err)
	}

	if *tessellate {
		tess, err := prog.Tessellate(args...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("tessellation: %d instances, %d per block, %d total blocks\n",
			tess.Instances, tess.InstancesPerBlock, tess.TotalBlocks)
		fmt.Printf("board: STE utilization %.1f%%, mean BR allocation %.1f%%, clock divisor %d\n",
			100*tess.Placement.STEUtilization, 100*tess.Placement.MeanBRAllocation,
			tess.Placement.ClockDivisor)
		return
	}

	design, err := prog.CompileNamed(*name, args...)
	if err != nil {
		fatal(err)
	}
	// Placement places the compiled design's device network, the one
	// OptimizeForDevice returns, so place before swapping it in.
	var placement *rapid.Placement
	if *doPlace {
		if placement, err = design.PlaceAndRoute(); err != nil {
			fatal(err)
		}
	}
	if *optimize {
		design = design.OptimizeForDevice()
	}
	if *stats {
		s := design.Stats()
		fmt.Fprintf(os.Stderr, "STEs=%d counters=%d boolean=%d edges=%d reporting=%d clock-divisor=%d\n",
			s.STEs, s.Counters, s.BooleanGates, s.Edges, s.Reporting, s.ClockDivisor)
	}
	if p := placement; p != nil {
		fmt.Fprintf(os.Stderr, "blocks=%d STE-utilization=%.1f%% mean-BR=%.1f%% clock-divisor=%d\n",
			p.TotalBlocks, 100*p.STEUtilization, 100*p.MeanBRAllocation, p.ClockDivisor)
	}

	if *witness {
		w, err := design.FindWitness(0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("witness (%d symbols): %q\n", len(w), w)
		return
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if *dot {
		if err := design.WriteDot(out); err != nil {
			fatal(err)
		}
		return
	}
	if err := design.WriteANML(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidc:", err)
	os.Exit(1)
}
