// Command rapidserve puts compiled RAPID/ANML designs behind a network
// match endpoint — the serving layer of the reproduction. It mounts one
// or more designs, each on its batched lazy-DFA engine, coalesces small
// concurrent requests into batched engine runs, refuses over-capacity
// load with 429 + Retry-After instead of queuing unboundedly, and drains
// gracefully on SIGTERM.
//
// Usage:
//
//	rapidserve -src program.rapid -args '[["rapid"]]'
//	rapidserve -designs designs.json -addr :8765 -metrics-addr :9190
//	rapidserve -designs designs.json -artifact-cache /var/cache/rapid
//
// With -designs, the manifest is a JSON array of design entries:
//
//	[{"name": "spam", "src": "spam.rapid", "args": [["viagra"]]},
//	 {"name": "motif", "anml": "motif.anml"}]
//
// The manifest is validated up front — duplicate names, unknown fields,
// missing files, and malformed args are all reported in one pass with
// file:line context, instead of failing on the first mount.
//
// With -artifact-cache, compiled designs are persisted to a versioned
// on-disk cache keyed by program hash; a restart (or another replica
// sharing the directory) mounts them without recompiling. With -place
// (the default), each mounted design is also placed — through a shared
// macro-stamping cache, so manifests full of variants of one rule family
// compile at stamping speed — and the layout rides along in the same
// artifact, so restarts restore placements instead of re-running them.
//
// Endpoints: POST /v1/match (single-shot: a JSON request, or with
// Content-Type application/octet-stream the raw input as the body and the
// design as ?design=NAME), POST /v1/match/stream
// (separator-framed record stream in, NDJSON results out), GET
// /v1/designs, /healthz, /readyz, and — when -metrics-addr is set —
// /metrics and /debug/vars on a dedicated telemetry listener that is shut
// down last during the drain. See docs/SERVING.md.
//
// SIGHUP re-reads the -designs manifest and hot-reloads it: new designs
// mount, changed designs swap, removed designs unmount — without
// dropping any in-flight request. SIGTERM (or SIGINT) starts the
// graceful drain: admissions stop, in-flight batches flush, then the
// process exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rapid "repro"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8765", "serve address")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this dedicated address")
		srcPath      = flag.String("src", "", "RAPID source file for a single design")
		anmlPath     = flag.String("anml", "", "ANML file for a single design (alternative to -src)")
		argsJSON     = flag.String("args", "[]", "network arguments for -src as a JSON array")
		name         = flag.String("name", "default", "design name for -src/-anml")
		designsPath  = flag.String("designs", "", "JSON manifest mounting multiple designs (SIGHUP hot-reloads it)")
		artifactDir  = flag.String("artifact-cache", "", "persist compiled designs to this directory, keyed by program hash; restarts mount from it without recompiling")
		placeFlag    = flag.Bool("place", true, "place mounted designs through the shared macro-stamping cache and persist layouts in the artifact cache")
		queueDepth   = flag.Int("queue", 64, "per-design admission queue capacity (backpressure bound)")
		maxBatch     = flag.Int("max-batch", 16, "most requests coalesced into one engine batch (a batch is what queued while the previous one ran)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant admission rate (requests/sec, X-Tenant header); 0 disables quotas")
		tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant burst size (0 = ceil(rate))")
		workers      = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline after SIGTERM")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		QueueDepth:  *queueDepth,
		MaxBatch:    *maxBatch,
		RetryAfter:  *retryAfter,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		Workers:     *workers,
		ArtifactDir: *artifactDir,
		Placement:   *placeFlag,
	}
	if *metricsAddr != "" {
		cfg.Telemetry = telemetry.Default()
	}
	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	loadAll := func() ([]serve.DesignSpec, error) {
		return loadSpecs(*designsPath, *srcPath, *anmlPath, *argsJSON, *name)
	}
	specs, err := loadAll()
	if err != nil {
		fatal(err)
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "rapidserve: no designs: pass -src, -anml, or -designs")
		flag.Usage()
		os.Exit(2)
	}
	for _, spec := range specs {
		info, err := s.AddDesign(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rapidserve: mounted design %q hash=%s tiers=%s stes=%d\n",
			info.Name, info.Hash, info.Tiers, info.STEs)
	}

	if err := s.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rapidserve: serving on http://%s\n", s.Addr())
	if ma := s.MetricsAddr(); ma != "" {
		fmt.Fprintf(os.Stderr, "rapidserve: serving metrics on http://%s/metrics\n", ma)
	}

	// SIGHUP hot-reloads the manifest; SIGTERM/SIGINT starts the graceful
	// drain: stop admissions, flush in-flight batches, then take the
	// telemetry listener down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	for done := false; !done; {
		select {
		case <-hup:
			specs, err := loadAll()
			if err != nil {
				// A bad manifest must never take down a serving process:
				// report and keep the mounted set.
				fmt.Fprintf(os.Stderr, "rapidserve: reload rejected:\n%v\n", err)
				continue
			}
			summary, err := s.ApplyManifest(specs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rapidserve: reload failed: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "rapidserve: reloaded: %s\n", summary)
		case <-ctx.Done():
			done = true
		}
	}
	fmt.Fprintln(os.Stderr, "rapidserve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "rapidserve: drained cleanly")
}

// designEntry is one -designs manifest entry.
type designEntry struct {
	Name string          `json:"name"`
	Src  string          `json:"src,omitempty"`
	ANML string          `json:"anml,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// loadSpecs resolves the single-design flags and/or the -designs manifest
// into mountable specs.
func loadSpecs(designsPath, srcPath, anmlPath, argsJSON, name string) ([]serve.DesignSpec, error) {
	var specs []serve.DesignSpec
	if srcPath != "" || anmlPath != "" {
		args, err := rapid.ValuesFromJSON([]byte(argsJSON))
		if err != nil {
			return nil, err
		}
		spec := serve.DesignSpec{Name: name, Args: args}
		if srcPath != "" {
			data, err := os.ReadFile(srcPath)
			if err != nil {
				return nil, err
			}
			spec.Source = string(data)
		} else {
			data, err := os.ReadFile(anmlPath)
			if err != nil {
				return nil, err
			}
			spec.ANML = data
		}
		specs = append(specs, spec)
	}
	if designsPath == "" {
		return specs, nil
	}
	manifest, err := loadManifest(designsPath, specs)
	if err != nil {
		return nil, err
	}
	return append(specs, manifest...), nil
}

// loadManifest reads and fully validates a -designs manifest, reporting
// every problem in one pass with file:line context instead of stopping at
// the first. flagSpecs are the specs already claimed by the single-design
// flags, so name collisions across the two sources are caught too.
func loadManifest(path string, flagSpecs []serve.DesignSpec) ([]serve.DesignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}

	// Each problem is an error, so a typed cause stays visible through the
	// aggregate with errors.As.
	var problems []any
	problemf := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Errorf("%s:%d: "+format, append([]any{path, line}, args...)...))
	}
	lineAt := func(byteOffset int64) int {
		if byteOffset > int64(len(data)) {
			byteOffset = int64(len(data))
		}
		return 1 + bytes.Count(data[:byteOffset], []byte("\n"))
	}

	// Decode entry by entry so each one's byte offset — hence line — is
	// known even though encoding/json does not expose positions. A
	// misspelled or retired key is a problem, not a silent default.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("%s:1: bad manifest: %v", path, err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, fmt.Errorf("%s:1: bad manifest: top level must be a JSON array of design entries", path)
	}
	type locatedEntry struct {
		entry designEntry
		line  int
		err   error // a field error (an unknown key, a wrong type); the rest decoded
	}
	var entries []locatedEntry
	for dec.More() {
		// InputOffset points just past the previous token; skip the
		// separators so the line credited is the entry's own first byte.
		off := dec.InputOffset()
		for off < int64(len(data)) && (data[off] == ' ' || data[off] == '\t' ||
			data[off] == '\n' || data[off] == '\r' || data[off] == ',') {
			off++
		}
		line := lineAt(off)
		var e designEntry
		err := dec.Decode(&e)
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%s:%d: bad manifest entry: %v", path, line, err)
		}
		entries = append(entries, locatedEntry{entry: e, line: line, err: err})
	}

	seen := map[string]int{} // name → line first mounted
	for _, spec := range flagSpecs {
		seen[spec.Name] = 0
	}
	var specs []serve.DesignSpec
	for i, le := range entries {
		e, line := le.entry, le.line
		label := fmt.Sprintf("entry %d", i+1)
		if e.Name != "" {
			label = fmt.Sprintf("design %q", e.Name)
		}
		if e.Name == "" {
			problemf(line, "%s: missing name", label)
		} else if prev, dup := seen[e.Name]; dup {
			if prev == 0 {
				problemf(line, "%s: name already taken by the -src/-anml flags", label)
			} else {
				problemf(line, "%s: duplicate of the design mounted at line %d", label, prev)
			}
		} else {
			seen[e.Name] = line
		}

		if le.err != nil {
			problemf(line, "%s: %v", label, le.err)
		}

		spec := serve.DesignSpec{Name: e.Name}
		if len(e.Args) > 0 {
			args, err := rapid.ValuesFromJSON(e.Args)
			if err != nil {
				problemf(line, "%s: bad args: %v", label, err)
			} else {
				spec.Args = args
			}
		}
		switch {
		case e.Src != "" && e.ANML != "":
			problemf(line, "%s: has both src and anml; pick one", label)
		case e.Src != "":
			data, err := os.ReadFile(e.Src)
			if err != nil {
				problemf(line, "%s: %v", label, err)
			} else {
				spec.Source = string(data)
			}
		case e.ANML != "":
			data, err := os.ReadFile(e.ANML)
			if err != nil {
				problemf(line, "%s: %v", label, err)
			} else {
				spec.ANML = data
			}
		default:
			problemf(line, "%s: has neither src nor anml", label)
		}
		specs = append(specs, spec)
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("rapidserve: %d problem(s) in -designs manifest:"+
			strings.Repeat("\n  %w", len(problems)), append([]any{len(problems)}, problems...)...)
	}
	return specs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidserve:", err)
	os.Exit(1)
}
