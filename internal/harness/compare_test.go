package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

func trow(bench, engine string, workers int, mbs float64, note string) ThroughputRow {
	return ThroughputRow{Benchmark: bench, Engine: engine, Workers: workers, MBPerSec: mbs, Note: note}
}

func TestCompareThroughputPassesWithinTolerance(t *testing.T) {
	baseline := []ThroughputRow{
		trow("Exact", "lazy-dfa", 0, 100, ""),
		trow("Exact", "engine-batch", 4, 400, ""),
	}
	current := []ThroughputRow{
		trow("Exact", "lazy-dfa", 0, 80, ""),      // -20%, inside 35%
		trow("Exact", "engine-batch", 4, 390, ""), // noise
	}
	regressions, skipped := CompareThroughput(baseline, current, 0.35)
	if len(regressions) != 0 {
		t.Fatalf("regressions = %v, want none", regressions)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v, want none", skipped)
	}
}

func TestCompareThroughputFlagsRegression(t *testing.T) {
	baseline := []ThroughputRow{trow("Exact", "lazy-dfa", 0, 100, "")}
	current := []ThroughputRow{trow("Exact", "lazy-dfa", 0, 50, "")} // -50%
	regressions, _ := CompareThroughput(baseline, current, 0.35)
	if len(regressions) != 1 {
		t.Fatalf("regressions = %v, want 1", regressions)
	}
	r := regressions[0]
	if r.Ratio != 0.5 || r.BaselineMBs != 100 || r.CurrentMBs != 50 {
		t.Fatalf("regression = %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "Exact/lazy-dfa") || !strings.Contains(s, "50%") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCompareThroughputSkipsIncomparableRows(t *testing.T) {
	baseline := []ThroughputRow{
		trow("Brill", "aot-dfa", 0, 0, "unavailable: counters"),
		trow("Exact", "engine-batch", 8, 500, ""), // host-specific worker count
		trow("Exact", "lazy-dfa", 0, 100, ""),
	}
	current := []ThroughputRow{
		trow("Brill", "aot-dfa", 0, 0, "unavailable: counters"),
		trow("Exact", "engine-batch", 4, 300, ""), // different GOMAXPROCS
		trow("Exact", "lazy-dfa", 0, 95, ""),
	}
	regressions, skipped := CompareThroughput(baseline, current, 0.35)
	if len(regressions) != 0 {
		t.Fatalf("regressions = %v, want none — incomparable rows must not gate-fail", regressions)
	}
	// Three skips: the unavailable tier, the current-only worker count, the
	// baseline-only worker count.
	if len(skipped) != 3 {
		t.Fatalf("skipped = %v, want 3 entries", skipped)
	}
	text := strings.Join(skipped, "\n")
	for _, want := range []string{"unavailable", "not in baseline", "not measured"} {
		if !strings.Contains(text, want) {
			t.Fatalf("skip reasons %q missing %q", text, want)
		}
	}
}

func TestFormatComparison(t *testing.T) {
	regressions := []Regression{{Benchmark: "Exact", Engine: "lazy-dfa", BaselineMBs: 100, CurrentMBs: 50, Ratio: 0.5}}
	out := FormatComparison(regressions, []string{"Exact/x: not measured"}, 0.35)
	for _, want := range []string{"REGRESSION", "skipped", "1 regression(s) beyond 35% tolerance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatComparison missing %q in:\n%s", want, out)
		}
	}
	ok := FormatComparison(nil, nil, 0.35)
	if !strings.Contains(ok, "throughput gate: ok") {
		t.Fatalf("FormatComparison = %q", ok)
	}
}

func TestCrossTierFloors(t *testing.T) {
	current := []ThroughputRow{
		// Brill: lazy collapsed below the bitset tier — the exact failure
		// mode the old gate missed when both rows individually passed
		// tolerance against their own baselines.
		trow("Brill", "nfa-bitset", 0, 3.1, ""),
		trow("Brill", "lazy-dfa", 0, 0.8, "states=145 evictions=9"),
		// Exact: lazy healthy.
		trow("Exact", "nfa-bitset", 0, 40, ""),
		trow("Exact", "lazy-dfa", 0, 200, ""),
		// Gappy: aot-dfa unavailable rows must not confuse the floor, and
		// a lazy row inside the tolerance band is noise, not a violation.
		trow("Gappy", "nfa-bitset", 0, 17.8, ""),
		trow("Gappy", "aot-dfa", 0, 0, "unavailable: construction exceeded 50000 states"),
		trow("Gappy", "lazy-dfa", 0, 17.5, ""),
		// MOTOMATA: the counter DFA clears its 3x ratio floor.
		trow("MOTOMATA", "nfa-bitset", 0, 20, ""),
		trow("MOTOMATA", "lazy-dfa", 0, 61, "states=117 evictions=0"),
		// ARM: no lazy row measured → skipped with the reason.
		trow("ARM", "nfa-bitset", 0, 80, ""),
		// Sweep and batch rows never participate in the floor.
		trow("Brill", "lazy-dfa[cache=4096]", 0, 0.1, ""),
		trow("Exact", "engine-batch", 4, 400, ""),
	}
	violations, skipped := CrossTierFloors(current, 0.35)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want only the Brill lazy collapse", violations)
	}
	v := violations[0]
	if v.Benchmark != "Brill" || v.TierMBs != 0.8 || v.FloorMBs != 3.1 {
		t.Fatalf("violation = %+v", v)
	}
	if s := v.String(); !strings.Contains(s, "Brill: lazy-dfa") || !strings.Contains(s, "floor") {
		t.Fatalf("String() = %q", s)
	}
	if len(skipped) != 1 || skipped[0] != "ARM: no lazy-dfa row" {
		t.Fatalf("skipped = %v, want only the ARM skip reason", skipped)
	}
}

// TestCrossTierFloorsCounterRatio checks MOTOMATA's ratio floor: keeping
// up with nfa-bitset is not enough for the counter DFA — it must be 3x,
// and the tolerance band that forgives noise elsewhere does not apply.
func TestCrossTierFloorsCounterRatio(t *testing.T) {
	for _, tc := range []struct {
		lazy      float64
		violation bool
	}{{219.5, false}, {63.1, false}, {59.9, true}, {21, true}} {
		current := []ThroughputRow{
			trow("MOTOMATA", "nfa-bitset", 0, 21, ""),
			trow("MOTOMATA", "lazy-dfa", 0, tc.lazy, ""),
		}
		violations, _ := CrossTierFloors(current, 0.35)
		if (len(violations) == 1) != tc.violation {
			t.Fatalf("lazy %.1f vs bitset 21: violations = %v, want violation=%v", tc.lazy, violations, tc.violation)
		}
		if tc.violation {
			v := violations[0]
			if v.MinRatio != 3 || !strings.Contains(v.String(), "3.00x floor") {
				t.Fatalf("violation = %+v (%s)", v, v)
			}
		}
	}
}

// TestCrossTierFloorsUnavailableLazy: an unavailable row on either side is a
// skip with its reason, never a violation.
func TestCrossTierFloorsUnavailableLazy(t *testing.T) {
	current := []ThroughputRow{
		trow("Gappy", "nfa-bitset", 0, 0, "unavailable: oom"),
		trow("Gappy", "lazy-dfa", 0, 100, ""),
		trow("ARM", "nfa-bitset", 0, 80, ""),
		trow("ARM", "lazy-dfa", 0, 0, "unavailable: oom"),
	}
	violations, skipped := CrossTierFloors(current, 0.35)
	if len(violations) != 0 {
		t.Fatalf("violations = %v, want none", violations)
	}
	if len(skipped) != 2 || !strings.Contains(skipped[0], "Gappy: nfa-bitset unavailable") ||
		!strings.Contains(skipped[1], "ARM: lazy-dfa unavailable") {
		t.Fatalf("skipped = %v, want one reason per unavailable side", skipped)
	}
}

func TestFormatFloors(t *testing.T) {
	violations := []FloorViolation{{Benchmark: "Brill", TierMBs: 0.8, FloorMBs: 3.1, Ratio: 0.26}}
	out := FormatFloors(violations, []string{"ARM: no lazy-dfa row"}, 0.35)
	for _, want := range []string{"FLOOR", "floor skipped", "1 violation(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatFloors missing %q in:\n%s", want, out)
		}
	}
	ok := FormatFloors(nil, nil, 0.35)
	if !strings.Contains(ok, "cross-tier floor: ok") {
		t.Fatalf("FormatFloors = %q", ok)
	}
}

// TestFormatThroughputWorkersColumn: the two engine-batch rows of one
// benchmark differ only in their worker count, so the table must show it;
// single-stream tiers leave the column blank.
func TestFormatThroughputWorkersColumn(t *testing.T) {
	out := FormatThroughput([]ThroughputRow{
		{Benchmark: "Exact", Engine: "lazy-dfa", Streams: 1},
		{Benchmark: "Exact", Engine: "engine-batch", Streams: 4, Workers: 1},
		{Benchmark: "Exact", Engine: "engine-batch", Streams: 4, Workers: 2},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 rows:\n%s", out)
	}
	col := strings.Index(lines[0], "Workers")
	if col < 0 {
		t.Fatalf("no Workers column in header %q", lines[0])
	}
	for i, want := range []string{"", "1", "2"} {
		if got := strings.TrimSpace(lines[i+1][col : col+len("Workers")]); got != want {
			t.Errorf("row %d Workers cell = %q, want %q:\n%s", i, got, want, out)
		}
	}
}

func TestReadThroughputJSONRoundTrip(t *testing.T) {
	rows := []ThroughputRow{trow("Exact", "lazy-dfa", 0, 123.4, "")}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteThroughputJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadThroughputJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rows[0] {
		t.Fatalf("round-trip = %+v, want %+v", got, rows)
	}
	if _, err := ReadThroughputJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}
