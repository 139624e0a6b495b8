package harness

// Throughput-regression comparison: the CI bench gate measures a fresh
// throughput run and compares each (benchmark, engine, workers) row's
// MB/s against the committed BENCH_throughput.json baseline with a
// fractional tolerance band. rapidbench -baseline/-tolerance makes the
// gate one command, reproducible locally.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ReadThroughputJSON loads the rows of a BENCH_throughput.json file.
func ReadThroughputJSON(path string) ([]ThroughputRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f throughputFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("harness: bad throughput JSON %s: %w", path, err)
	}
	return f.Rows, nil
}

// Regression is one measurement that fell below the tolerance band.
type Regression struct {
	Benchmark string
	Engine    string
	Workers   int
	// BaselineMBs and CurrentMBs are the compared MB/s readings; Ratio is
	// current/baseline.
	BaselineMBs float64
	CurrentMBs  float64
	Ratio       float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s%s: %.1f MB/s vs baseline %.1f MB/s (%.0f%%)",
		r.Benchmark, r.Engine, workerSuffix(r.Workers), r.CurrentMBs, r.BaselineMBs, 100*r.Ratio)
}

func workerSuffix(workers int) string {
	if workers == 0 {
		return ""
	}
	return fmt.Sprintf("@%dw", workers)
}

func compareKey(r ThroughputRow) string {
	return fmt.Sprintf("%s\x00%s\x00%d", r.Benchmark, r.Engine, r.Workers)
}

// comparable reports whether a row carries a real measurement (tiers that
// were unavailable — e.g. the AOT DFA on counter designs — have no MB/s
// to compare).
func comparable(r ThroughputRow) bool {
	return r.MBPerSec > 0 && !strings.HasPrefix(r.Note, "unavailable")
}

// CompareThroughput flags every current row whose MB/s fell below
// baseline*(1-tolerance). Rows present on only one side, or unavailable
// on either side, are skipped and listed for visibility — a tier
// silently disappearing from the measurement set should be noticed, not
// gate-failed (worker counts legitimately differ across hosts).
func CompareThroughput(baseline, current []ThroughputRow, tolerance float64) (regressions []Regression, skipped []string) {
	base := make(map[string]ThroughputRow, len(baseline))
	for _, r := range baseline {
		base[compareKey(r)] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		key := compareKey(cur)
		seen[key] = true
		b, ok := base[key]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("%s/%s%s: not in baseline", cur.Benchmark, cur.Engine, workerSuffix(cur.Workers)))
			continue
		}
		if !comparable(b) || !comparable(cur) {
			skipped = append(skipped, fmt.Sprintf("%s/%s%s: unavailable", cur.Benchmark, cur.Engine, workerSuffix(cur.Workers)))
			continue
		}
		ratio := cur.MBPerSec / b.MBPerSec
		if ratio < 1-tolerance {
			regressions = append(regressions, Regression{
				Benchmark:   cur.Benchmark,
				Engine:      cur.Engine,
				Workers:     cur.Workers,
				BaselineMBs: b.MBPerSec,
				CurrentMBs:  cur.MBPerSec,
				Ratio:       ratio,
			})
		}
	}
	for _, r := range baseline {
		if !seen[compareKey(r)] {
			skipped = append(skipped, fmt.Sprintf("%s/%s%s: not measured", r.Benchmark, r.Engine, workerSuffix(r.Workers)))
		}
	}
	return regressions, skipped
}

// FloorViolation is a benchmark where lazy-dfa ran slower, relative to the
// nfa-bitset tier it is supposed to dominate, than its floor allows.
type FloorViolation struct {
	Benchmark string
	// TierMBs and FloorMBs are lazy-dfa's and nfa-bitset's MB/s readings.
	TierMBs  float64
	FloorMBs float64
	// Ratio is TierMBs/FloorMBs; MinRatio is what the floor demands.
	Ratio    float64
	MinRatio float64
}

func (v FloorViolation) String() string {
	return fmt.Sprintf("%s: lazy-dfa %.1f MB/s is %.2fx nfa-bitset's %.1f MB/s, below its %.2fx floor",
		v.Benchmark, v.TierMBs, v.Ratio, v.FloorMBs, v.MinRatio)
}

// motomataLazyFloor is the factor by which MOTOMATA's lazy-dfa row must
// beat nfa-bitset, with no tolerance discount: the benchmark is all
// counters, and its DFA over whole configurations replaces a
// special-element evaluation per byte with a table load. A same-host ratio
// survives the slow stretches that make absolute MB/s floors flaky.
const motomataLazyFloor = 3.0

// CrossTierFloors checks the invariant the lazy tier promises against the
// single-stream nfa-bitset walk on every benchmark: lazy-dfa must not run
// slower than nfa-bitset (the tier it demotes to when its cache is
// useless), within the same fractional tolerance the baseline gate uses —
// and on MOTOMATA must beat it by motomataLazyFloor, tolerance or not.
//
// This closes the gap where a tier got slower but still passed tolerance
// against its *own* baseline while dropping below the bitset tier on the
// same benchmark.
//
// Only the plain "lazy-dfa" row is floored — fixed-size sweep rows
// (lazy-dfa[cache=N]) and cold rows deliberately measure degraded
// operating points. Benchmarks where either side is unavailable or absent
// are skipped with the reason listed.
func CrossTierFloors(current []ThroughputRow, tolerance float64) (violations []FloorViolation, skipped []string) {
	type pair struct {
		lazy, floor *ThroughputRow
	}
	byBench := map[string]*pair{}
	var order []string
	get := func(name string) *pair {
		p, ok := byBench[name]
		if !ok {
			p = &pair{}
			byBench[name] = p
			order = append(order, name)
		}
		return p
	}
	for i := range current {
		r := &current[i]
		if r.Workers != 0 {
			continue
		}
		switch r.Engine {
		case "lazy-dfa":
			get(r.Benchmark).lazy = r
		case "nfa-bitset":
			get(r.Benchmark).floor = r
		}
	}
	for _, name := range order {
		p := byBench[name]
		switch {
		case p.floor == nil:
			skipped = append(skipped, fmt.Sprintf("%s: no nfa-bitset row", name))
			continue
		case !comparable(*p.floor):
			skipped = append(skipped, fmt.Sprintf("%s: nfa-bitset unavailable (%s)", name, p.floor.Note))
			continue
		case p.lazy == nil:
			skipped = append(skipped, fmt.Sprintf("%s: no lazy-dfa row", name))
			continue
		case !comparable(*p.lazy):
			skipped = append(skipped, fmt.Sprintf("%s: lazy-dfa unavailable (%s)", name, p.lazy.Note))
			continue
		}
		minRatio := 1 - tolerance
		if name == "MOTOMATA" {
			minRatio = motomataLazyFloor
		}
		if ratio := p.lazy.MBPerSec / p.floor.MBPerSec; ratio < minRatio {
			violations = append(violations, FloorViolation{
				Benchmark: name,
				TierMBs:   p.lazy.MBPerSec,
				FloorMBs:  p.floor.MBPerSec,
				Ratio:     ratio,
				MinRatio:  minRatio,
			})
		}
	}
	return violations, skipped
}

// FormatFloors renders the cross-tier floor verdict.
func FormatFloors(violations []FloorViolation, skipped []string, tolerance float64) string {
	var b strings.Builder
	for _, v := range violations {
		fmt.Fprintf(&b, "FLOOR %s\n", v)
	}
	for _, s := range skipped {
		fmt.Fprintf(&b, "floor skipped %s\n", s)
	}
	if len(violations) == 0 {
		fmt.Fprintf(&b, "cross-tier floor: ok (lazy-dfa >= nfa-bitset within %.0f%%, MOTOMATA lazy-dfa >= %.0fx; %d skipped)\n",
			100*tolerance, motomataLazyFloor, len(skipped))
	} else {
		fmt.Fprintf(&b, "cross-tier floor: %d violation(s)\n", len(violations))
	}
	return b.String()
}

// ReadCompileJSON loads the compile-throughput rows of a
// BENCH_throughput.json file.
func ReadCompileJSON(path string) ([]CompileRow, error) {
	f, err := readThroughputFile(path)
	if err != nil {
		return nil, err
	}
	return f.CompileRows, nil
}

// CompileRegression is one compile-throughput measurement that fell
// below the tolerance band.
type CompileRegression struct {
	Workload string
	Mode     string
	// BaselineDPS and CurrentDPS are the compared designs/sec readings;
	// Ratio is current/baseline.
	BaselineDPS float64
	CurrentDPS  float64
	Ratio       float64
}

func (r CompileRegression) String() string {
	return fmt.Sprintf("%s/%s: %.1f designs/s vs baseline %.1f designs/s (%.0f%%)",
		r.Workload, r.Mode, r.CurrentDPS, r.BaselineDPS, 100*r.Ratio)
}

func compileKey(r CompileRow) string {
	return fmt.Sprintf("%s\x00%s", r.Workload, r.Mode)
}

// CompareCompile flags every current compile row whose designs/sec fell
// below baseline*(1-tolerance), keyed by (workload, mode). Rows present
// on only one side are skipped and listed, mirroring CompareThroughput.
func CompareCompile(baseline, current []CompileRow, tolerance float64) (regressions []CompileRegression, skipped []string) {
	base := make(map[string]CompileRow, len(baseline))
	for _, r := range baseline {
		base[compileKey(r)] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		key := compileKey(cur)
		seen[key] = true
		b, ok := base[key]
		if !ok {
			skipped = append(skipped, fmt.Sprintf("%s/%s: not in baseline", cur.Workload, cur.Mode))
			continue
		}
		if b.DesignsPerSec <= 0 || cur.DesignsPerSec <= 0 {
			skipped = append(skipped, fmt.Sprintf("%s/%s: unavailable", cur.Workload, cur.Mode))
			continue
		}
		ratio := cur.DesignsPerSec / b.DesignsPerSec
		if ratio < 1-tolerance {
			regressions = append(regressions, CompileRegression{
				Workload:    cur.Workload,
				Mode:        cur.Mode,
				BaselineDPS: b.DesignsPerSec,
				CurrentDPS:  cur.DesignsPerSec,
				Ratio:       ratio,
			})
		}
	}
	for _, r := range baseline {
		if !seen[compileKey(r)] {
			skipped = append(skipped, fmt.Sprintf("%s/%s: not measured", r.Workload, r.Mode))
		}
	}
	return regressions, skipped
}

// CompileFloorViolation is a workload whose stamped pipeline failed to
// deliver its promised speedup over cold global placement.
type CompileFloorViolation struct {
	Workload   string
	StampedDPS float64
	ColdDPS    float64
	Ratio      float64
	MinRatio   float64
}

func (v CompileFloorViolation) String() string {
	return fmt.Sprintf("%s: stamped %.1f designs/s only %.2fx cold %.1f designs/s (floor %.1fx)",
		v.Workload, v.StampedDPS, v.Ratio, v.ColdDPS, v.MinRatio)
}

// CompileFloor checks the stamping pipeline's reason to exist: on every
// workload measured in both modes, stamped placement must compile at
// least minRatio times as many designs per second as cold global
// placement. Unlike the baseline comparison this is machine-independent —
// both sides run on the same host in the same process — so it gates
// hard with no tolerance discount. Workloads missing either mode are
// skipped and listed.
func CompileFloor(rows []CompileRow, minRatio float64) (violations []CompileFloorViolation, skipped []string) {
	cold := map[string]float64{}
	stamped := map[string]float64{}
	var order []string
	for _, r := range rows {
		switch r.Mode {
		case CompileModeCold:
			cold[r.Workload] = r.DesignsPerSec
		case CompileModeStamped:
			if _, ok := stamped[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			stamped[r.Workload] = r.DesignsPerSec
		}
	}
	for _, w := range order {
		c, ok := cold[w]
		if !ok || c <= 0 {
			skipped = append(skipped, fmt.Sprintf("%s: no cold row", w))
			continue
		}
		ratio := stamped[w] / c
		if ratio < minRatio {
			violations = append(violations, CompileFloorViolation{
				Workload:   w,
				StampedDPS: stamped[w],
				ColdDPS:    c,
				Ratio:      ratio,
				MinRatio:   minRatio,
			})
		}
	}
	return violations, skipped
}

// FormatCompileGate renders the compile gate's verdict: regressions
// against the committed baseline, then the stamped-vs-cold floor.
func FormatCompileGate(regressions []CompileRegression, floorViolations []CompileFloorViolation, skipped []string, tolerance, minRatio float64) string {
	var b strings.Builder
	for _, r := range regressions {
		fmt.Fprintf(&b, "REGRESSION %s\n", r)
	}
	for _, v := range floorViolations {
		fmt.Fprintf(&b, "FLOOR %s\n", v)
	}
	for _, s := range skipped {
		fmt.Fprintf(&b, "skipped %s\n", s)
	}
	if len(regressions) == 0 && len(floorViolations) == 0 {
		fmt.Fprintf(&b, "compile gate: ok (tolerance %.0f%%, stamped floor %.1fx cold, %d skipped)\n",
			100*tolerance, minRatio, len(skipped))
	} else {
		fmt.Fprintf(&b, "compile gate: %d regression(s), %d floor violation(s)\n",
			len(regressions), len(floorViolations))
	}
	return b.String()
}

// FormatComparison renders the gate's verdict: one line per regression
// and skip, plus a summary line.
func FormatComparison(regressions []Regression, skipped []string, tolerance float64) string {
	var b strings.Builder
	for _, r := range regressions {
		fmt.Fprintf(&b, "REGRESSION %s\n", r)
	}
	for _, s := range skipped {
		fmt.Fprintf(&b, "skipped %s\n", s)
	}
	if len(regressions) == 0 {
		fmt.Fprintf(&b, "throughput gate: ok (tolerance %.0f%%, %d rows skipped)\n", 100*tolerance, len(skipped))
	} else {
		fmt.Fprintf(&b, "throughput gate: %d regression(s) beyond %.0f%% tolerance\n", len(regressions), 100*tolerance)
	}
	return b.String()
}
