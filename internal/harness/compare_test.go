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
		// tolerance against their own baselines. Its lane tier is healthy.
		trow("Brill", "nfa-bitset", 0, 3.1, ""),
		trow("Brill", "lazy-dfa", 0, 0.8, "states=145 evictions=9"),
		trow("Brill", "nfa-bitset-x64", 0, 12, ""),
		// Exact: lazy healthy, but the lane tier fell below the
		// single-stream walk it must beat — tolerance does not rescue it
		// (minimum ratio for the lane tier is 1, not 1-tolerance).
		trow("Exact", "nfa-bitset", 0, 40, ""),
		trow("Exact", "lazy-dfa", 0, 200, ""),
		trow("Exact", "nfa-bitset-x64", 0, 30, ""),
		// Gappy: aot-dfa unavailable rows must not confuse the floor, a
		// lane-unavailable row is a skip, not a failure, and a lazy row
		// inside the tolerance band is noise, not a violation.
		trow("Gappy", "nfa-bitset", 0, 17.8, ""),
		trow("Gappy", "aot-dfa", 0, 0, "unavailable: construction exceeded 50000 states"),
		trow("Gappy", "lazy-dfa", 0, 17.5, ""),
		trow("Gappy", "nfa-bitset-x64", 0, 0, "unavailable: lane execution requires a pure-STE topology"),
		// MOTOMATA: the counter DFA clears its 3x ratio floor.
		trow("MOTOMATA", "nfa-bitset", 0, 20, ""),
		trow("MOTOMATA", "lazy-dfa", 0, 61, "states=117 evictions=0"),
		// ARM: no lazy or lane rows measured → skipped with reasons.
		trow("ARM", "nfa-bitset", 0, 80, ""),
		// Sweep and batch rows never participate in the floor.
		trow("Brill", "lazy-dfa[cache=4096]", 0, 0.1, ""),
		trow("Brill", "nfa-bitset-x64[lanes=8]", 0, 0.1, ""),
		trow("Exact", "engine-batch", 4, 400, ""),
	}
	violations, skipped := CrossTierFloors(current, 0.35)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want the Brill lazy collapse and the Exact lane shortfall", violations)
	}
	v := violations[0]
	if v.Benchmark != "Brill" || v.Engine != "lazy-dfa" || v.TierMBs != 0.8 || v.FloorMBs != 3.1 {
		t.Fatalf("violation = %+v", v)
	}
	if s := v.String(); !strings.Contains(s, "Brill") || !strings.Contains(s, "floor") {
		t.Fatalf("String() = %q", s)
	}
	lv := violations[1]
	if lv.Benchmark != "Exact" || lv.Engine != "nfa-bitset-x64" || lv.TierMBs != 30 || lv.FloorMBs != 40 {
		t.Fatalf("lane violation = %+v", lv)
	}
	text := strings.Join(skipped, "\n")
	if !strings.Contains(text, "ARM: no lazy-dfa row") || !strings.Contains(text, "ARM: no nfa-bitset-x64 row") {
		t.Fatalf("skipped = %v, want ARM skip reasons", skipped)
	}
	if !strings.Contains(text, "Gappy: nfa-bitset-x64 unavailable") {
		t.Fatalf("skipped = %v, want Gappy lane-unavailable reason", skipped)
	}
	if strings.Contains(text, "Gappy: lazy-dfa") {
		t.Fatalf("Gappy's lazy tier should pass the floor despite its unavailable aot row: %v", skipped)
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
			trow("MOTOMATA", "nfa-bitset-x64", 0, 0, "unavailable: lane execution requires a pure-STE topology"),
		}
		violations, _ := CrossTierFloors(current, 0.35)
		if (len(violations) == 1) != tc.violation {
			t.Fatalf("lazy %.1f vs bitset 21: violations = %v, want violation=%v", tc.lazy, violations, tc.violation)
		}
		if tc.violation {
			v := violations[0]
			if v.Engine != "lazy-dfa" || v.MinRatio != 3 || !strings.Contains(v.String(), "3.00x floor") {
				t.Fatalf("violation = %+v (%s)", v, v)
			}
		}
	}
}

func TestCrossTierFloorsUnavailableLazy(t *testing.T) {
	current := []ThroughputRow{
		trow("Gappy", "nfa-bitset", 0, 0, "unavailable: oom"),
		trow("Gappy", "lazy-dfa", 0, 100, ""),
	}
	violations, skipped := CrossTierFloors(current, 0.35)
	if len(violations) != 0 {
		t.Fatalf("violations = %v, want none", violations)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "nfa-bitset unavailable") {
		t.Fatalf("skipped = %v, want one nfa-bitset-unavailable reason", skipped)
	}
}

func TestFormatFloors(t *testing.T) {
	violations := []FloorViolation{{Benchmark: "Brill", Engine: "lazy-dfa", TierMBs: 0.8, FloorMBs: 3.1, Ratio: 0.26}}
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
