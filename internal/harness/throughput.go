package harness

// Throughput measurement for the CPU execution tiers, tracked from PR 2
// onward via BENCH_throughput.json: every benchmark app is streamed
// through the NFA bitset simulator, the ahead-of-time DFA (where the
// design determinizes within the state budget), and the bounded-memory
// lazy DFA, and the resulting MB/s rows are serialized so the perf
// trajectory is visible across PRs.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/lazydfa"
)

// ThroughputConfig sizes a throughput run.
type ThroughputConfig struct {
	// StreamBytes is the input-stream length per benchmark. Default 1<<20.
	StreamBytes int
	// AOTMaxStates bounds the ahead-of-time subset construction; designs
	// exceeding it get an "unavailable" row (the lazy tier still runs —
	// that is the point of the comparison). Default 50,000.
	AOTMaxStates int
	// Seed drives workload generation. Default 1.
	Seed int64
	// Engines restricts the tiers measured, by engine name ("nfa-bitset",
	// "aot-dfa", "lazy-dfa"). Empty measures all of them.
	Engines []string
	// Benchmarks restricts the benchmark apps measured, by name. Empty
	// measures all five.
	Benchmarks []string
	// LazyCacheSizes adds one extra lazy-dfa row per fixed MaxCachedStates
	// value (engine "lazy-dfa[cache=N]"), so the adaptive budget's
	// operating points are inspectable from the committed JSON.
	LazyCacheSizes []int
	// ColdLazy adds a "lazy-dfa-cold" row per benchmark: a fresh matcher
	// with no warm stream, measuring first-stream latency where cache
	// fills dominate.
	ColdLazy bool
}

func (c ThroughputConfig) wants(engine string) bool {
	if len(c.Engines) == 0 {
		return true
	}
	for _, e := range c.Engines {
		if e == engine {
			return true
		}
	}
	return false
}

func (c *ThroughputConfig) withDefaults() ThroughputConfig {
	out := ThroughputConfig{StreamBytes: 1 << 20, AOTMaxStates: 50_000, Seed: 1}
	if c != nil {
		if c.StreamBytes > 0 {
			out.StreamBytes = c.StreamBytes
		}
		if c.AOTMaxStates > 0 {
			out.AOTMaxStates = c.AOTMaxStates
		}
		if c.Seed != 0 {
			out.Seed = c.Seed
		}
		out.Engines = c.Engines
		out.Benchmarks = c.Benchmarks
		out.LazyCacheSizes = c.LazyCacheSizes
		out.ColdLazy = c.ColdLazy
	}
	return out
}

func (c ThroughputConfig) wantsBench(name string) bool {
	if len(c.Benchmarks) == 0 {
		return true
	}
	for _, b := range c.Benchmarks {
		if b == name {
			return true
		}
	}
	return false
}

// ThroughputRow is one (benchmark, engine) throughput measurement.
type ThroughputRow struct {
	Benchmark string  `json:"benchmark"`
	Engine    string  `json:"engine"`
	Streams   int     `json:"streams"`
	Bytes     int64   `json:"bytes"`
	Seconds   float64 `json:"seconds"`
	MBPerSec  float64 `json:"mb_per_s"`
	Reports   int     `json:"reports"`
	Workers   int     `json:"workers,omitempty"`
	Note      string  `json:"note,omitempty"`
}

func row(benchmark, engine string, streams int, nbytes int64, elapsed time.Duration, reports int) ThroughputRow {
	r := ThroughputRow{
		Benchmark: benchmark,
		Engine:    engine,
		Streams:   streams,
		Bytes:     nbytes,
		Seconds:   elapsed.Seconds(),
		Reports:   reports,
	}
	if elapsed > 0 {
		r.MBPerSec = float64(nbytes) / (1 << 20) / elapsed.Seconds()
	}
	return r
}

// Throughput streams each benchmark app through the three single-stream
// CPU tiers and returns one row per (benchmark, engine). The lazy tier is
// measured at serving steady state: its cache is warmed with a
// full-length, independently seeded stream first, mirroring how the AOT
// tier's subset construction is also excluded from its timing. ColdLazy
// adds explicit cold rows for the fill-dominated first stream.
func Throughput(cfg *ThroughputConfig) ([]ThroughputRow, error) {
	c := cfg.withDefaults()
	var rows []ThroughputRow
	for _, b := range bench.All() {
		if !c.wantsBench(b.Name) {
			continue
		}
		net, err := benchNetwork(b)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.Seed))
		input := b.Input(rng, c.StreamBytes)
		nbytes := int64(len(input))

		if c.wants("nfa-bitset") {
			sim, err := automata.NewFastSimulator(net)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			start := time.Now()
			reports := sim.Run(input)
			rows = append(rows, row(b.Name, "nfa-bitset", 1, nbytes, time.Since(start), len(reports)))
		}

		if c.wants("aot-dfa") {
			if d, err := dfa.FromNetwork(net, &dfa.Options{MaxStates: c.AOTMaxStates}); err != nil {
				r := row(b.Name, "aot-dfa", 1, 0, 0, 0)
				r.Note = fmt.Sprintf("unavailable: %v", err)
				rows = append(rows, r)
			} else {
				start := time.Now()
				dreports := d.Run(input)
				rows = append(rows, row(b.Name, "aot-dfa", 1, nbytes, time.Since(start), len(dreports)))
			}
		}

		if c.wants("lazy-dfa") {
			variants := []lazyVariant{{engine: "lazy-dfa"}}
			for _, size := range c.LazyCacheSizes {
				variants = append(variants, lazyVariant{
					engine: fmt.Sprintf("lazy-dfa[cache=%d]", size),
					opts:   &lazydfa.Options{MaxCachedStates: size},
				})
			}
			if c.ColdLazy {
				variants = append(variants, lazyVariant{engine: "lazy-dfa-cold", cold: true})
			}
			for _, v := range variants {
				m, err := lazydfa.New(net, v.opts)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", b.Name, err)
				}
				if !v.cold {
					// Steady-state warm: two full passes over the stream.
					// The first discovers the state working set (growing
					// the adaptive budget as it goes); the second refills
					// anything evicted during that growth, so the measured
					// pass is the recurring-traffic walk — construction
					// excluded from timing exactly as the AOT tier's
					// subset construction is.
					m.Run(input)
					m.Run(input)
				}
				skipped0 := m.PrefilterSkipped()
				start := time.Now()
				lreports := m.Run(input)
				r := row(b.Name, v.engine, 1, nbytes, time.Since(start), len(lreports))
				r.Note = lazyNote(m, skipped0, nbytes)
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// lazyVariant is one lazy-tier measurement configuration.
type lazyVariant struct {
	engine string
	opts   *lazydfa.Options
	cold   bool
}

// lazyNote renders the lazy tier's cache-efficiency note: interned states
// and lifetime evictions (covering the warm stream's churn), plus the
// fraction of the measured stream the prefilter skipped, and a demotion
// marker when the matcher gave up on the DFA.
func lazyNote(m *lazydfa.Matcher, skippedBefore int, measuredBytes int64) string {
	var pct int64
	if measuredBytes > 0 {
		pct = 100 * int64(m.PrefilterSkipped()-skippedBefore) / measuredBytes
	}
	note := fmt.Sprintf("states=%d evictions=%d skipped=%d%%", m.CachedStates(), m.Evictions(), pct)
	if m.Demoted() {
		note += " demoted"
	}
	return note
}

// benchNetwork compiles the benchmark's RAPID design at its Table 4/5
// instance size.
func benchNetwork(b *bench.Benchmark) (*automata.Network, error) {
	src, args := b.RAPID(b.DefaultInstances)
	prog, err := core.Load(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	res, err := prog.Compile(args, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return res.Network, nil
}

// MultiStreamWorkload generates the multi-stream batch workload: streams
// independent inputs from the benchmark's generator.
func MultiStreamWorkload(b *bench.Benchmark, streams, streamBytes int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, streams)
	for i := range out {
		out[i] = b.Input(rng, streamBytes)
	}
	return out
}

// BatchThroughput times a caller-supplied batch executor (typically
// Engine.RunBatch from the root package, which harness cannot import)
// over a multi-stream workload and returns its row. run must process
// every stream and return the total report count.
func BatchThroughput(benchmark, engine string, workers int, streams [][]byte, run func([][]byte) (int, error)) (ThroughputRow, error) {
	var nbytes int64
	for _, s := range streams {
		nbytes += int64(len(s))
	}
	start := time.Now()
	reports, err := run(streams)
	if err != nil {
		return ThroughputRow{}, err
	}
	r := row(benchmark, engine, len(streams), nbytes, time.Since(start), reports)
	r.Workers = workers
	return r, nil
}

// throughputFile is the BENCH_throughput.json layout. Execution
// throughput (Rows) and compile throughput (CompileRows) live in one
// file so CI gates both from a single committed baseline.
type throughputFile struct {
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	Rows        []ThroughputRow `json:"rows"`
	CompileRows []CompileRow    `json:"compile_rows,omitempty"`
}

// readThroughputFile loads the whole baseline file; a missing file reads
// as an empty baseline so each section can be refreshed independently.
func readThroughputFile(path string) (throughputFile, error) {
	var f throughputFile
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("harness: bad throughput JSON %s: %w", path, err)
	}
	return f, nil
}

func writeThroughputFile(path string, f throughputFile) error {
	f.GOMAXPROCS = runtime.GOMAXPROCS(0)
	f.NumCPU = runtime.NumCPU()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteThroughputJSON serializes rows (plus the host parallelism they
// were measured under) to path, preserving any compile rows already in
// the file.
func WriteThroughputJSON(path string, rows []ThroughputRow) error {
	f, err := readThroughputFile(path)
	if err != nil {
		return err
	}
	f.Rows = rows
	return writeThroughputFile(path, f)
}

// WriteCompileJSON serializes compile-throughput rows to path, preserving
// any execution-throughput rows already in the file.
func WriteCompileJSON(path string, rows []CompileRow) error {
	f, err := readThroughputFile(path)
	if err != nil {
		return err
	}
	f.CompileRows = rows
	return writeThroughputFile(path, f)
}

// FormatThroughput renders rows as a table. The Workers column is blank
// for the single-stream tiers, which have no worker pool.
func FormatThroughput(rows []ThroughputRow) string {
	out := fmt.Sprintf("%-10s %-12s %8s %7s %10s %10s %9s  %s\n",
		"Benchmark", "Engine", "Streams", "Workers", "MiB", "MB/s", "Reports", "Note")
	for _, r := range rows {
		workers := ""
		if r.Workers > 0 {
			workers = strconv.Itoa(r.Workers)
		}
		out += fmt.Sprintf("%-10s %-12s %8d %7s %10.2f %10.1f %9d  %s\n",
			r.Benchmark, r.Engine, r.Streams, workers, float64(r.Bytes)/(1<<20), r.MBPerSec, r.Reports, r.Note)
	}
	return out
}
