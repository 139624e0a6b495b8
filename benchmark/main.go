// Command benchmark is the repository's benchmark: four closed-loop
// workloads over one bank of paper designs, from RAPID source to the
// gateway's reply, every reply checked against an independent oracle. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is what one invocation measured of one workload.
type result struct {
	workload  string
	attempted int
	failed    int
	wrong     int64 // wrong replies anywhere in the run, warm-up included
	metrics   map[string]float64
}

func (r *result) correct() bool { return r.failed == 0 && r.wrong == 0 }

// config is one invocation.
type config struct {
	workloads []workload
	seed      int64
	shape     shape
	trace     bool
	traceOut  string
}

// run measures the configured workloads in shape.passes interleaved passes
// and returns the end-to-end metrics. In a traced run the last pass is traced
// and adds the per-layer metrics; the end-to-end metrics come from the passes
// before it, the difference between the two being the tracing overhead.
func run(cfg config, log io.Writer) ([]*result, error) {
	type state struct {
		wl      workload
		setup   setupFunc
		callers []*caller
		passes  []passSample
	}
	states := make([]*state, len(cfg.workloads))
	for i, wl := range cfg.workloads {
		start := time.Now()
		setup, err := wl.prepare(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s pools: %w", wl.name, err)
		}
		st := &state{wl: wl, setup: setup}
		for id := 0; id < wl.callers; id++ {
			st.callers = append(st.callers, &caller{id: id, lat: make([]time.Duration, 0, 1<<16)})
		}
		states[i] = st
		fmt.Fprintf(log, "%-14s pools and oracle ready in %.2fs\n", wl.name, time.Since(start).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	last := cfg.shape.passes - 1
	for p := 0; p <= last; p++ {
		for _, st := range states {
			var passTracer *tracer
			if p == last {
				passTracer = tr
			}
			sample, err := runPass(st.wl, st.setup, st.callers, cfg.shape, passTracer, log)
			if err != nil {
				return nil, err
			}
			st.passes = append(st.passes, sample)
			fmt.Fprintf(log, "%-14s pass %d: set-up %.3fs, live heap %.1f MiB, windows: %s\n",
				st.wl.name, p+1, sample.setup.Seconds(), float64(sample.liveHeap)/(1<<20), describe(sample.windows))
		}
	}
	if tr != nil {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(log, "%d spans written to %s\n", len(tr.spans), cfg.traceOut)
	}

	results := make([]*result, len(states))
	for i, st := range states {
		r := &result{workload: st.wl.name}
		if cfg.trace {
			untraced := st.passes[:last]
			if last == 0 {
				untraced = st.passes // a lone traced pass (the smoke test) is its own reference
			}
			r.metrics = endToEndMetrics(untraced)
			for name, v := range st.passes[last].layers {
				r.metrics[name] = v
			}
			r.metrics["trace.overhead_share"] = 1 - quantile(windowRates(st.passes[last:]), 0.5)/quantile(windowRates(untraced), 0.5)
		} else {
			r.metrics = endToEndMetrics(st.passes)
		}
		for _, p := range st.passes {
			r.wrong += p.wrong
			for _, w := range p.windows {
				r.attempted += w.ops
				r.failed += w.failed
			}
		}
		results[i] = r
	}
	return results, nil
}

func windowRates(passes []passSample) []float64 {
	var out []float64
	for _, p := range passes {
		for _, w := range p.windows {
			out = append(out, w.rate)
		}
	}
	return out
}

// describe lists the raw samples of a pass's windows, so that a run's log
// shows what its estimators were taken from.
func describe(ws []windowSample) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("%.1f ops/s p50 %.3f p90 %.3f cpu %.3f ms %.0f allocs %.1f KiB",
			w.rate, w.p50, w.p90, w.cpuPerOp, float64(w.mallocs)/float64(w.ops), float64(w.allocBytes)/1024/float64(w.ops))
	}
	return strings.Join(parts, " | ")
}

// endToEndMetrics reduces the passes of one workload. Contention on a shared
// machine only ever slows a sample, so each timing is the fast-side quartile
// of its samples (q25 of times, q75 of rates). Allocation per op is the least
// of the windows, what an op allocates when no matcher is being re-warmed:
// engines clone cold matchers and re-fill their lazy-DFA caches in bursts
// that multiply the allocation of two to eleven windows in fifteen, so
// between runs of the same code the total moves by half, the median window
// by a third and even the quartile by 40 %, while the floor repeats to the
// second decimal (README.md has the numbers). The live heap is the median
// over passes.
func endToEndMetrics(passes []passSample) map[string]float64 {
	var setups, heaps, p50s, p90s, cpus, mallocs, bytes []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		heaps = append(heaps, float64(p.liveHeap)/(1<<20))
		for _, w := range p.windows {
			p50s, p90s, cpus = append(p50s, w.p50), append(p90s, w.p90), append(cpus, w.cpuPerOp)
			mallocs = append(mallocs, float64(w.mallocs)/float64(w.ops))
			bytes = append(bytes, float64(w.allocBytes)/1024/float64(w.ops))
		}
	}
	return map[string]float64{
		"setup_s":         quantile(setups, 0.25),
		"ops_per_s":       quantile(windowRates(passes), 0.75),
		"op_p50_ms":       quantile(p50s, 0.25),
		"op_p90_ms":       quantile(p90s, 0.25),
		"cpu_ms_per_op":   quantile(cpus, 0.25),
		"allocs_per_op":   quantile(mallocs, 0),
		"alloc_kb_per_op": quantile(bytes, 0),
		"live_heap_mb":    quantile(heaps, 0.5),
	}
}

// printResults writes the table of every metric with its unit, and the
// counts of ops attempted, succeeded and failed.
func printResults(w io.Writer, results []*result, defs []metricDef) {
	for _, r := range results {
		fmt.Fprintf(w, "\n%s: %d ops attempted, %d succeeded, %d failed", r.workload, r.attempted, r.attempted-r.failed, r.failed)
		if r.wrong > 0 {
			fmt.Fprintf(w, " (%d wrong replies in all, warm-up included)", r.wrong)
		}
		fmt.Fprintln(w)
		for _, d := range defs {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
		}
	}
}

// summary is the object the last line of standard output carries. With one
// workload the metric names are BENCHMARK.json's; with several, each is
// prefixed with its workload.
func summary(results []*result, defs []metricDef) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			v := r.metrics[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v, out.Correct = 0, false
			}
			out.Metrics[name] = value{v, d.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return line, out.Correct
}

// selfcheck runs two full sets of the same code back to back and prints
// every end-to-end metric's relative difference beside its bound.
func selfcheck(cfg config, w io.Writer) (bool, error) {
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(w, "--- set %d ---\n", i+1)
		var err error
		if sets[i], err = run(cfg, w); err != nil {
			return false, err
		}
	}
	ok := true
	fmt.Fprintf(w, "\n%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		ok = ok && a.correct() && b.correct()
		for _, d := range endToEnd {
			x, y := a.metrics[d.name], b.metrics[d.name]
			// How much the worse of the two sets is worse than the other.
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > d.bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", a.workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 18, "measured seconds per workload: 5 passes × 3 windows of seconds/15")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the spans")
		out     = flag.String("trace-out", "benchmark/out/trace.json", "where a traced run writes its spans")
		check   = flag.Bool("selfcheck", false, "run two full sets of all workloads and compare them against the bounds")
	)
	flag.Parse()

	// Two processors: the callers are two, and the machines this runs on
	// have two cores. Never more than the machine has.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	cfg := config{
		seed:     *seed,
		shape:    shape{passes: 5, windows: 3, window: time.Duration(*seconds / 15 * float64(time.Second))},
		trace:    *trace != 0,
		traceOut: *out,
	}
	if cfg.trace {
		cfg.shape.passes = 2 // one untraced, then the traced one
	}
	for _, wl := range workloads() {
		if *name == "all" || *name == wl.name {
			cfg.workloads = append(cfg.workloads, wl)
		}
	}
	if len(cfg.workloads) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	start := time.Now()
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, seed %d, %d passes × %d windows of %v, trace %v\n",
		runtime.NumCPU(), procs, runtime.Version(), cfg.seed, cfg.shape.passes, cfg.shape.windows, cfg.shape.window, cfg.trace)

	if *check {
		ok, err := selfcheck(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("total wall time %.1fs\n", time.Since(start).Seconds())
		if !ok {
			fmt.Println("selfcheck: FAILED")
			os.Exit(1)
		}
		fmt.Println("selfcheck: passed")
		return
	}

	results, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("total wall time %.1fs\n", time.Since(start).Seconds())
	printResults(os.Stdout, results, defs)
	line, ok := summary(results, defs)
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads() {
		names = append(names, wl.name)
	}
	return names
}
