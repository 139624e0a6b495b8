// Command rapidbench regenerates the evaluation tables of the RAPID paper
// (ASPLOS 2016) over the five benchmark applications.
//
// Usage:
//
//	rapidbench -table all            # Tables 4, 5 and 6
//	rapidbench -table 4              # program size and STE usage
//	rapidbench -table 5              # placement and routing statistics
//	rapidbench -table 6 -scale 1     # tessellation at full paper sizes
//	rapidbench -throughput           # CPU-tier MB/s + BENCH_throughput.json
//
// The CI benchmark-regression gate is the compare mode: measure a fresh
// run and fail (exit 1) when any tier's MB/s fell more than -tolerance
// below the committed baseline:
//
//	rapidbench -throughput -baseline BENCH_throughput.json -tolerance 0.35
//
// The compile-throughput mode measures how many designs/sec placement
// compiles on a macro-heavy workload, cold vs parallel vs stamped, and
// its gate additionally enforces the stamped-vs-cold speedup floor
// (machine-independent, so it has no tolerance discount):
//
//	rapidbench -compile
//	rapidbench -compile -baseline BENCH_throughput.json
//
// Table 6 builds full-board designs; -scale shrinks the paper's problem
// sizes proportionally (e.g. 0.05 runs at 5%).
//
// -cpuprofile and -memprofile write pprof profiles of whichever mode ran,
// for digging into compiler or engine hot spots:
//
//	rapidbench -throughput -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	rapid "repro"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	var (
		table       = flag.String("table", "all", "which table to regenerate: 4, 5, 6, or all")
		scale       = flag.Float64("scale", 1.0, "Table 6 problem-size scale in (0, 1]")
		throughput  = flag.Bool("throughput", false, "measure CPU execution-tier throughput instead of the paper tables")
		streamMiB   = flag.Int("mib", 1, "throughput stream size per benchmark, in MiB")
		outJSON     = flag.String("out", "BENCH_throughput.json", "throughput JSON output path (empty to skip)")
		aotMax      = flag.Int("aotmax", 50_000, "AOT DFA state budget; designs exceeding it fall back to the lazy tier")
		backendFlag = flag.String("backend", "all", "throughput tier to measure: all, device, cpu-dfa, or lazy-dfa")
		lazyCache   = flag.String("lazy-cache", "", "comma-separated fixed MaxCachedStates values; adds one lazy-dfa[cache=N] throughput row per size")
		benchNames  = flag.String("benchmarks", "", "comma-separated benchmark names to measure (empty = all five)")
		compile     = flag.Bool("compile", false, "measure compile throughput (designs/sec placed, cold vs parallel vs stamped)")
		compDesigns = flag.Int("compile-designs", 16, "compile workload: designs in the manifest")
		compInst    = flag.Int("compile-instances", 64, "compile workload: macro instances per family")
		compSecs    = flag.Duration("compile-duration", 2*time.Second, "compile workload: measurement window per mode")
		compFloor   = flag.Float64("compile-floor", 3.0, "minimum stamped/cold designs-per-second ratio the -compile gate enforces")
		compTol     = flag.Float64("compile-tolerance", 0.5, "allowed fractional designs/sec drop before the -compile -baseline comparison fails (wide: absolute compile speed is machine-dependent)")
		coldLazy    = flag.Bool("cold", false, "also measure lazy-dfa with a cold cache (no warm stream)")
		baseline    = flag.String("baseline", "", "compare throughput against this baseline JSON and exit 1 on regression")
		tolerance   = flag.Float64("tolerance", 0.35, "allowed fractional throughput drop before -baseline fails the run")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this address during the run")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *metricsAddr != "" {
		reg := telemetry.Default()
		rapid.RegisterBackendMetrics(reg)
		ms, err := telemetry.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ms.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "rapidbench: serving metrics on http://%s/metrics\n", ms.Addr())
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *throughput {
		engines, batch, err := throughputTiers(*backendFlag)
		if err != nil {
			fatal(err)
		}
		cacheSizes, err := parseIntList(*lazyCache, "-lazy-cache")
		if err != nil {
			fatal(err)
		}
		cfg := &harness.ThroughputConfig{
			StreamBytes:    *streamMiB << 20,
			AOTMaxStates:   *aotMax,
			Engines:        engines,
			Benchmarks:     splitList(*benchNames),
			LazyCacheSizes: cacheSizes,
			ColdLazy:       *coldLazy,
		}
		rows := runThroughput(cfg, *streamMiB, *outJSON, batch, *metricsAddr != "")
		if *baseline != "" {
			if err := gateThroughput(*baseline, rows, *tolerance); err != nil {
				fmt.Fprintln(os.Stderr, "rapidbench:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *compile {
		cfg := harness.CompileConfig{
			Designs:   *compDesigns,
			Instances: *compInst,
			Duration:  *compSecs,
		}
		rows, err := harness.CompileThroughput(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatCompile(rows))
		if *outJSON != "" {
			if err := harness.WriteCompileJSON(*outJSON, rows); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *outJSON)
		}
		if *baseline != "" {
			if err := gateCompile(*baseline, rows, *compTol, *compFloor); err != nil {
				fmt.Fprintln(os.Stderr, "rapidbench:", err)
				os.Exit(1)
			}
		}
		return
	}

	run4 := *table == "4" || *table == "all"
	run5 := *table == "5" || *table == "all"
	run6 := *table == "6" || *table == "all"
	if !run4 && !run5 && !run6 {
		fmt.Fprintf(os.Stderr, "rapidbench: unknown table %q\n", *table)
		os.Exit(2)
	}

	if run4 {
		rows, err := harness.Table4()
		if err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatTable4(rows))
		fmt.Println()
	}
	if run5 {
		rows, err := harness.Table5()
		if err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatTable5(rows))
		fmt.Println()
	}
	if run6 {
		rows, err := harness.Table6(*scale)
		if err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatTable6(rows))
	}
}

// throughputTiers resolves the shared -backend flag into the harness
// engine names to measure and whether the batch-engine rows run. The
// reference tier is a correctness oracle, not a measured engine.
func throughputTiers(backend string) (engines []string, batch bool, err error) {
	if backend == "" || backend == "all" {
		return nil, true, nil
	}
	kind, err := rapid.ParseBackendKind(backend)
	if err != nil {
		return nil, false, err
	}
	switch kind {
	case rapid.BackendDevice:
		return []string{"nfa-bitset"}, false, nil
	case rapid.BackendCPUDFA:
		return []string{"aot-dfa"}, false, nil
	case rapid.BackendLazyDFA:
		return []string{"lazy-dfa"}, true, nil
	default:
		return nil, false, fmt.Errorf("rapidbench: backend %q is not a measured throughput tier", backend)
	}
}

// runThroughput measures the single-stream CPU tiers on every benchmark,
// then the multi-stream batch engine on the Exact workload at 1 worker and
// at the host's parallelism, and prints the table (plus JSON when -out is
// set).
// gateThroughput is the benchmark-regression gate: it compares the fresh
// rows against the committed baseline within the tolerance band, and
// additionally enforces the cross-tier floor (lazy-dfa >= nfa-bitset per
// benchmark) on the fresh rows themselves.
func gateThroughput(baselinePath string, rows []harness.ThroughputRow, tolerance float64) error {
	base, err := harness.ReadThroughputJSON(baselinePath)
	if err != nil {
		return err
	}
	regressions, skipped := harness.CompareThroughput(base, rows, tolerance)
	fmt.Print(harness.FormatComparison(regressions, skipped, tolerance))
	violations, floorSkipped := harness.CrossTierFloors(rows, tolerance)
	fmt.Print(harness.FormatFloors(violations, floorSkipped, tolerance))
	if len(regressions) > 0 {
		return fmt.Errorf("%d throughput regression(s) beyond %.0f%% tolerance of %s",
			len(regressions), 100*tolerance, baselinePath)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d cross-tier floor violation(s): a tier fell below its nfa-bitset floor", len(violations))
	}
	return nil
}

// gateCompile is the compile-throughput gate: designs/sec is compared
// against the committed baseline within a wide tolerance band (absolute
// compile speed varies a lot across CI hosts), and the stamped mode must
// beat cold placement by at least minRatio on the fresh rows themselves
// — the floor is a same-host, same-process ratio, so it gates hard.
func gateCompile(baselinePath string, rows []harness.CompileRow, tolerance, minRatio float64) error {
	base, err := harness.ReadCompileJSON(baselinePath)
	if err != nil {
		return err
	}
	regressions, skipped := harness.CompareCompile(base, rows, tolerance)
	violations, floorSkipped := harness.CompileFloor(rows, minRatio)
	fmt.Print(harness.FormatCompileGate(regressions, violations, append(skipped, floorSkipped...), tolerance, minRatio))
	if len(regressions) > 0 {
		return fmt.Errorf("%d compile-throughput regression(s) beyond %.0f%% tolerance of %s",
			len(regressions), 100*tolerance, baselinePath)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d compile floor violation(s): stamped placement fell below %.1fx cold", len(violations), minRatio)
	}
	return nil
}

// parseIntList parses a comma list of positive integers (the -lazy-cache
// sweep).
func parseIntList(s, flagName string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("rapidbench: bad %s value %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// wantsBenchmark mirrors the harness Benchmarks filter for the batch rows.
func wantsBenchmark(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func runThroughput(cfg *harness.ThroughputConfig, streamMiB int, outJSON string, batch, withTelemetry bool) []harness.ThroughputRow {
	rows, err := harness.Throughput(cfg)
	if err != nil {
		fatal(err)
	}
	if batch && wantsBenchmark(cfg.Benchmarks, bench.Exact().Name) {
		mb := bench.Exact()
		src, args := mb.RAPID(mb.DefaultInstances)
		prog, err := rapid.Parse(src)
		if err != nil {
			fatal(err)
		}
		design, err := prog.Compile(args...)
		if err != nil {
			fatal(err)
		}
		streams := harness.MultiStreamWorkload(mb, 2*runtime.GOMAXPROCS(0), streamMiB<<17, 2)
		workerSet := []int{1}
		if n := runtime.GOMAXPROCS(0); n > 1 {
			workerSet = append(workerSet, n)
		}
		for _, workers := range workerSet {
			opts := []rapid.Option{rapid.WithWorkers(workers)}
			if withTelemetry {
				opts = append(opts, rapid.WithTelemetry(telemetry.Default()))
			}
			eng, err := design.NewEngine(opts...)
			if err != nil {
				fatal(err)
			}
			r, err := harness.BatchThroughput(mb.Name, "engine-batch", workers, streams,
				func(ss [][]byte) (int, error) {
					res, err := eng.RunBatch(context.Background(), ss)
					total := 0
					for _, reports := range res {
						total += len(reports)
					}
					return total, err
				})
			if err != nil {
				fatal(err)
			}
			rows = append(rows, r)
		}
	}
	fmt.Print(harness.FormatThroughput(rows))
	if outJSON != "" {
		if err := harness.WriteThroughputJSON(outJSON, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", outJSON)
	}
	return rows
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidbench:", err)
	os.Exit(1)
}
