// Command rapidbench regenerates the evaluation tables of the RAPID paper
// (ASPLOS 2016) over the five benchmark applications.
//
// Usage:
//
//	rapidbench -table all            # Tables 4, 5 and 6
//	rapidbench -table 4              # program size and STE usage
//	rapidbench -table 5              # placement and routing statistics
//	rapidbench -table 6 -scale 1     # tessellation at full paper sizes
//
// Table 6 builds full-board designs; -scale shrinks the paper's problem
// sizes proportionally (e.g. 0.05 runs at 5%).
//
// -cpuprofile and -memprofile write pprof profiles of the run, for digging
// into compiler and placement hot spots:
//
//	rapidbench -table 6 -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
//
// Execution-tier throughput is measured by go test instead:
// go test -bench Tiers ./internal/lazydfa.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rapidbench:", err)
		os.Exit(1)
	}
}

// run does the work of main and returns instead of exiting, so the
// deferred profile writers flush on every path, failures included.
func run() (err error) {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 4, 5, 6, or all")
		scale      = flag.Float64("scale", 1.0, "Table 6 problem-size scale in (0, 1]")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	run4 := *table == "4" || *table == "all"
	run5 := *table == "5" || *table == "all"
	run6 := *table == "6" || *table == "all"
	if !run4 && !run5 && !run6 {
		return fmt.Errorf("unknown table %q", *table)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() { err = errors.Join(err, writeHeapProfile(*memProfile)) }()
	}

	if run4 {
		rows, err := harness.Table4()
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable4(rows))
		fmt.Println()
	}
	if run5 {
		rows, err := harness.Table5()
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable5(rows))
		fmt.Println()
	}
	if run6 {
		rows, err := harness.Table6(*scale)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable6(rows))
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
