package rapid

import (
	"bytes"
	"context"
	"errors"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestParseBackendKind(t *testing.T) {
	for _, kind := range BackendKinds() {
		got, err := ParseBackendKind(string(kind))
		if err != nil || got != kind {
			t.Fatalf("ParseBackendKind(%q) = %v, %v", kind, got, err)
		}
	}
	// Any other name, "cpu-dfa" included, is refused with the valid kinds.
	for _, name := range []string{"gpu", "cpu-dfa"} {
		_, err := ParseBackendKind(name)
		var ube *UnknownBackendError
		if !errors.As(err, &ube) {
			t.Fatalf("ParseBackendKind(%s) error = %v, want *UnknownBackendError", name, err)
		}
		if msg := err.Error(); !strings.HasSuffix(msg, "(valid kinds: device, lazy-dfa, reference)") {
			t.Fatalf("error %q does not list exactly the valid kinds", msg)
		}
	}
}

// TestBackendEveryKind exercises the uniform constructor: each tier is
// built through Design.Backend, reports its kind as its name, and agrees
// with the reference simulator on the observable report set.
func TestBackendEveryKind(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	input := []byte("xxabcxabc")
	want, err := design.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range BackendKinds() {
		m, err := design.Backend(kind)
		if err != nil {
			t.Fatalf("Backend(%s): %v", kind, err)
		}
		if m.Name() != string(kind) {
			t.Fatalf("Backend(%s).Name() = %q", kind, m.Name())
		}
		got, err := m.Match(context.Background(), input)
		if err != nil {
			t.Fatalf("backend %s: %v", kind, err)
		}
		if !sameReportSet(got, want) {
			t.Fatalf("backend %s report set %v != reference %v", kind, got, want)
		}
	}

	// Every kind builds for a counter design too.
	counterDesign := mustDesign(t, hammingSrc, Strings([]string{"rapid"}))
	for _, kind := range BackendKinds() {
		if _, err := counterDesign.Backend(kind); err != nil {
			t.Fatalf("Backend(%s) on a counter design: %v", kind, err)
		}
	}
}

// TestBackendTelemetryRecorded runs one stream through each tier with a
// private registry and checks the per-backend stream accounting.
func TestBackendTelemetryRecorded(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	input := []byte("xxabcxabc")
	reg := telemetry.NewRegistry()
	for _, kind := range BackendKinds() {
		m, err := design.Backend(kind, WithTelemetry(reg))
		if err != nil {
			t.Fatalf("Backend(%s): %v", kind, err)
		}
		want, err := m.Match(context.Background(), input)
		if err != nil {
			t.Fatalf("backend %s: %v", kind, err)
		}
		snap := reg.Snapshot()
		if got := snap.Counter(metricBackendStreams, "backend", string(kind)); got != 1 {
			t.Errorf("%s streams = %d, want 1", kind, got)
		}
		if got := snap.Counter(metricBackendBytes, "backend", string(kind)); got != uint64(len(input)) {
			t.Errorf("%s bytes = %d, want %d", kind, got, len(input))
		}
		if got := snap.Counter(metricBackendReports, "backend", string(kind)); got != uint64(len(want)) {
			t.Errorf("%s reports = %d, want %d", kind, got, len(want))
		}
	}
}

// TestRegisterBackendMetricsScrape checks the pre-registration contract:
// a scrape taken before any traffic still carries a zero-valued series for
// every tier.
func TestRegisterBackendMetricsScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterBackendMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, kind := range BackendKinds() {
		want := `rapid_backend_streams_total{backend="` + string(kind) + `"} 0`
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestEngineTelemetryRace hammers one instrumented Engine from concurrent
// batches while other goroutines snapshot and scrape the registry — the
// race-detector test the concurrency contract is pinned by.
func TestEngineTelemetryRace(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	reg := telemetry.NewRegistry()
	eng, err := design.NewEngine(WithWorkers(4), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte("xxabcx"),
		repeatStream("abc", 40),
		repeatStream("xabcx", 30),
		[]byte("no matches here"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := eng.RunBatch(context.Background(), inputs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				reg.Snapshot()
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	const wantStreams = 8 * 10 * 4
	if got := snap.Counter(metricBackendStreams, "backend", string(BackendLazyDFA)); got != wantStreams {
		t.Fatalf("lazy-dfa streams = %d, want %d", got, wantStreams)
	}
	if got := snap.Counter("rapid_engine_batches_total"); got != 8*10 {
		t.Fatalf("batches = %d, want %d", got, 8*10)
	}
	if got, ok := snap.Value("rapid_engine_queue_depth"); !ok || got != 0 {
		t.Fatalf("queue depth after drain = %v (ok=%v), want 0", got, ok)
	}
}

// TestEngineLaneStreamsCount pins rapid_engine_lane_streams_total exactly:
// 16 equal streams on two workers go out in groups of four, all 16 counted,
// while a batch of two gives each worker one stream and counts none.
// Per-stream backend accounting holds either way.
func TestEngineLaneStreamsCount(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	for _, tc := range []struct{ streams, want int }{{16, 16}, {2, 0}} {
		reg := telemetry.NewRegistry()
		eng, err := design.NewEngine(WithWorkers(2), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([][]byte, tc.streams)
		for i := range inputs {
			inputs[i] = repeatStream("xabcx", 50)
		}
		eng.RunBatchSettled(context.Background(), inputs)
		snap := reg.Snapshot()
		if got := snap.Counter("rapid_engine_lane_streams_total"); got != uint64(tc.want) {
			t.Errorf("%d streams: lane streams = %d, want %d", tc.streams, got, tc.want)
		}
		if got := snap.Counter(metricBackendStreams, "backend", string(BackendLazyDFA)); got != uint64(tc.streams) {
			t.Errorf("%d streams: lazy-dfa streams = %d, want one per stream", tc.streams, got)
		}
	}
}

// TestMetricsSnapshotDefault: a backend built WithTelemetry(telemetry.Default())
// counts its streams in the process-wide registry, whose snapshot
// resolves them by name.
func TestMetricsSnapshotDefault(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	before := telemetry.Default().Snapshot().Counter(metricBackendStreams, "backend", string(BackendDevice))
	m, err := design.Backend(BackendDevice, WithTelemetry(telemetry.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Match(context.Background(), []byte("xxabcx")); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot().Counter(metricBackendStreams, "backend", string(BackendDevice))
	if after != before+1 {
		t.Fatalf("default-registry device streams went %d -> %d, want +1", before, after)
	}
}

// TestMetricCatalogMatchesDocs is the metric catalog's guard for the
// execution paths this package owns and the always-on cold path beneath
// them: every rapid_backend_*, rapid_engine_* and rapid_lazydfa_* name
// an engine and a runner register, and every rapid_place_* name in the default registry after a
// stamper-backed placement, must have a row in docs/OBSERVABILITY.md's
// tables, and every such row must name a metric that something
// registered.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	reg := telemetry.NewRegistry()
	eng, err := design.NewEngine(WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := design.NewRunner(WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxabcx")
	if _, err := eng.RunBatch(context.Background(), [][]byte{input, input}); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(context.Background(), input); err != nil {
		t.Fatal(err)
	}
	if _, err := design.EnsurePlaced(NewPlacementCache()); err != nil {
		t.Fatal(err)
	}

	owned := regexp.MustCompile(`^rapid_(backend|engine|lazydfa|place)_`)
	registered := map[string]bool{}
	for _, snap := range []*telemetry.Snapshot{reg.Snapshot(), telemetry.Default().Snapshot()} {
		for _, name := range snap.Names() {
			if owned.MatchString(name) {
				registered[name] = true
			}
		}
	}
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, row := range regexp.MustCompile("(?m)^\\| `(rapid_[a-z0-9_]+)` \\|").FindAllSubmatch(doc, -1) {
		if name := string(row[1]); owned.MatchString(name) {
			documented[name] = true
		}
	}
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("vacuous: %d registered, %d documented", len(registered), len(documented))
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("%s has a row in docs/OBSERVABILITY.md but nothing registers it", name)
		}
	}
}
