// Command rapidrun compiles a RAPID program and executes it against an
// input stream on one of the design's execution backends, printing report
// events.
//
// Usage:
//
//	rapidrun -src program.rapid -args '[["rapid"]]' -input data.bin
//	rapidrun -src program.rapid -args '[["rapid"]]' -text "xxrapidxx"
//	rapidrun ... -backend lazy-dfa        # pick an execution tier
//	rapidrun ... -interp                  # reference interpreter instead
//	rapidrun ... -metrics-addr :9190      # serve /metrics and /debug/vars
//
// -backend selects the execution tier by BackendKind (device, lazy-dfa,
// reference); any other value is refused with the valid kinds before the
// program is read.
//
// With -metrics-addr, rapidrun serves Prometheus text format at /metrics
// and expvar-style JSON at /debug/vars for the duration of the run, and
// every backend records per-stream telemetry. -repeat streams the input
// several times, for soak runs worth scraping.
//
// With -sep, the input text is split on commas and streamed as records
// separated by the reserved START_OF_INPUT symbol (0xFF), with a leading
// separator, matching the paper's flattened-array convention.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	rapid "repro"
	"repro/internal/telemetry"
)

func main() {
	var (
		srcPath     = flag.String("src", "", "RAPID source file (required)")
		argsJSON    = flag.String("args", "[]", "network arguments as a JSON array")
		inputPath   = flag.String("input", "", "input stream file")
		text        = flag.String("text", "", "input stream text (alternative to -input)")
		sep         = flag.Bool("sep", false, "treat -text as comma-separated records joined by the reserved separator")
		useInterp   = flag.Bool("interp", false, "run the reference interpreter instead of a compiled backend")
		trace       = flag.Bool("trace", false, "print a per-cycle execution trace (active elements, reports)")
		backendFlag = flag.String("backend", "device", "execution backend: device, lazy-dfa, or reference")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this address during the run")
		repeat      = flag.Int("repeat", 1, "stream the input this many times (soak mode; reports printed once)")
	)
	flag.Parse()
	// SIGINT cancels the run: rapidrun drains the reports gathered so
	// far, says where it stopped, and exits instead of dying mid-stream.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "rapidrun: -src is required")
		flag.Usage()
		os.Exit(2)
	}
	kind, err := rapid.ParseBackendKind(*backendFlag)
	if err != nil {
		fatal(err)
	}

	var opts []rapid.Option
	var metricsSrv *telemetry.MetricsServer
	if *metricsAddr != "" {
		reg := telemetry.Default()
		rapid.RegisterBackendMetrics(reg)
		opts = append(opts, rapid.WithTelemetry(reg))
		ms, err := telemetry.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		metricsSrv = ms
		fmt.Fprintf(os.Stderr, "rapidrun: serving metrics on http://%s/metrics\n", ms.Addr())
	}
	// shutdownMetrics is part of the drain path: it lets an in-flight
	// final scrape finish instead of racing process exit. A fresh timeout
	// context — not the (possibly already cancelled) run context — so the
	// scrape window survives SIGINT.
	shutdownMetrics := func() {
		if metricsSrv == nil {
			return
		}
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = metricsSrv.Shutdown(sctx)
	}
	defer shutdownMetrics()

	var input []byte
	switch {
	case *inputPath != "":
		data, err := os.ReadFile(*inputPath)
		if err != nil {
			fatal(err)
		}
		input = data
	case *sep:
		records := strings.Split(*text, ",")
		input = []byte{rapid.StartOfInput}
		for _, r := range records {
			input = append(input, r...)
			input = append(input, rapid.StartOfInput)
		}
	default:
		input = []byte(*text)
	}

	prog, err := rapid.ParseFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	args, err := rapid.ValuesFromJSON([]byte(*argsJSON))
	if err != nil {
		fatal(err)
	}

	if *useInterp {
		offsets, err := prog.Interpret(args, input)
		if err != nil {
			fatal(err)
		}
		for _, off := range offsets {
			fmt.Printf("report offset=%d\n", off)
		}
		fmt.Printf("%d distinct report offsets\n", len(offsets))
		return
	}

	design, err := prog.Compile(args...)
	if err != nil {
		fatal(err)
	}
	if *trace {
		if err := design.WriteTrace(os.Stdout, input); err != nil {
			fatal(err)
		}
		return
	}

	m, err := design.Backend(kind, opts...)
	if err != nil {
		fatal(err)
	}
	var reports []rapid.Report
	for i := 0; i < *repeat || i == 0; i++ {
		reports, err = m.Match(ctx, input)
		if err != nil {
			break
		}
	}
	// Explicit (not just deferred) because printReports may os.Exit on an
	// interrupted run — the SIGINT drain still closes the listener cleanly.
	shutdownMetrics()
	printReports(design, reports, err)
}

func printReports(design *rapid.Design, reports []rapid.Report, err error) {
	for _, r := range reports {
		fmt.Printf("report offset=%d code=%d %s\n", r.Offset, r.Code, design.Site(r.Code))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidrun: interrupted: %v (%d reports before cancellation)\n", err, len(reports))
		os.Exit(130)
	}
	fmt.Printf("%d report events\n", len(reports))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidrun:", err)
	os.Exit(1)
}
