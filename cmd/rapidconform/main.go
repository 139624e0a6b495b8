// Command rapidconform soaks the differential conformance harness: it
// generates well-typed RAPID programs from a seed, runs each across the
// interpreter oracle, every execution backend, the printer and ANML
// round-trips, and the snapshot/restore path, and reports divergences
// as shrunk, replayable reproducer files.
//
// Usage:
//
//	rapidconform -seed 7 -programs 500
//	rapidconform -seed 7 -duration 5m -out failures/
//	rapidconform -replay 1234567890        # re-check one program by its seed
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/conformance"
	"repro/internal/rapidgen"
)

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rapidconform: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "campaign seed (deterministic program stream)")
		programs = flag.Int("programs", 500, "number of programs to generate and check")
		duration = flag.Duration("duration", 0, "wall-clock bound; overrides -programs when set")
		inputs   = flag.Int("inputs", 6, "input streams derived per program")
		out      = flag.String("out", "conformance-failures", "directory for shrunk reproducer files")
		replay   = flag.Int64("replay", 0, "re-generate and check a single program by its per-program seed")
		stop     = flag.Bool("stop-on-failure", false, "stop the campaign at the first divergence")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...interface{}) {}
	}

	if *replay != 0 {
		replayOne(*replay, *inputs, logf)
		return
	}

	cfg := conformance.SoakConfig{
		Seed:          *seed,
		Programs:      *programs,
		Inputs:        *inputs,
		OutDir:        *out,
		StopOnFailure: *stop,
		Log:           logf,
	}
	if *duration > 0 {
		cfg.Programs = 0
		cfg.Duration = *duration
	}

	start := time.Now()
	res, err := conformance.Soak(cfg)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("programs:  %d (%d distinct)\n", res.Programs, res.Distinct)
	fmt.Printf("checks:    %d in %s\n", res.Checks, time.Since(start).Round(time.Millisecond))
	fmt.Printf("caches:    %d evictions, %d demotions on the long streams\n", res.Evictions, res.Demotions)
	if len(res.Skips) > 0 {
		var keys []string
		for k := range res.Skips {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("skip:      %s ×%d\n", k, res.Skips[k])
		}
	}
	covered := 0
	for _, k := range rapidgen.StmtKinds {
		if res.Coverage[k] {
			covered++
		}
	}
	fmt.Printf("coverage:  %d/%d statement kinds", covered, len(rapidgen.StmtKinds))
	if missing := res.CoverageComplete(); len(missing) > 0 {
		fmt.Printf(" (missing: %v)", missing)
	}
	fmt.Println()

	if len(res.Failures) > 0 {
		fmt.Printf("FAIL: %d divergences\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Printf("  seed=%d check=%s %s\n", f.Seed, f.Check, f.Detail)
			if f.Path != "" {
				fmt.Printf("    reproducer: %s\n", f.Path)
			}
		}
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// replayOne regenerates a single program from its per-program seed,
// prints it, and runs the full check battery against it.
func replayOne(seed int64, inputs int, logf func(string, ...interface{})) {
	g := rapidgen.New(0)
	p, err := g.Replay(seed)
	if err != nil {
		fatal("replay %d: %v", seed, err)
	}
	aj, _ := conformance.ArgsJSON(p.Args)
	fmt.Printf("// seed: %d\n// args: %s\n%s", p.Seed, aj, p.Source)
	c := &conformance.Case{Source: p.Source, Args: p.Args, Inputs: rapidgen.Inputs(p, inputs), Seed: p.Seed}
	out, err := conformance.Check(c)
	if err != nil {
		fatal("check: %v", err)
	}
	for _, f := range out.Failures {
		logf("FAIL %s", f)
	}
	if len(out.Failures) > 0 {
		os.Exit(1)
	}
	fmt.Printf("// PASS: %d checks\n", out.Checks)
}
