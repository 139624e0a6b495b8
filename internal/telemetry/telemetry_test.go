package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one registry from many goroutines —
// registration, labeled lookup, and updates all racing — and checks the
// totals. Run under -race this is the concurrency-safety proof for the
// metrics core.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("hammer_total", "h").Inc()
				r.CounterVec("hammer_labeled_total", "h", "worker").With("w").Add(2)
				r.Gauge("hammer_gauge", "h").Add(1)
				r.Histogram("hammer_hist", "h").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("hammer_total"); got != goroutines*iters {
		t.Errorf("hammer_total = %d, want %d", got, goroutines*iters)
	}
	if got := snap.Counter("hammer_labeled_total", "worker", "w"); got != 2*goroutines*iters {
		t.Errorf("hammer_labeled_total = %d, want %d", got, 2*goroutines*iters)
	}
	if got, _ := snap.Value("hammer_gauge"); got != goroutines*iters {
		t.Errorf("hammer_gauge = %v, want %d", got, goroutines*iters)
	}
	se, ok := snap.find("hammer_hist")
	if !ok || se.Count != goroutines*iters {
		t.Errorf("hammer_hist count = %v ok=%v", se, ok)
	}
}

// TestNilSafety checks the disabled path: every instrument obtained from a
// nil registry must no-op without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Counter("a", "").Add(3)
	r.Gauge("b", "").Set(7)
	r.Gauge("b", "").Dec()
	r.Histogram("c", "").Observe(9)
	r.CounterVec("d", "", "l").With("x").Inc()
	r.GaugeVec("e", "", "l").With("x").Add(1)
	r.HistogramVec("f", "", "l").With("x").Observe(1)
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Errorf("nil registry snapshot = %v", got.Metrics)
	}
	if v := r.Counter("a", "").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
}

// TestPrometheusGolden locks the text exposition format byte-for-byte for
// a counter, a labeled family, a gauge, and a histogram.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("streams_total", "Streams served.").Add(3)
	v := r.CounterVec("backend_bytes_total", "Bytes by backend.", "backend")
	v.With("device").Add(100)
	v.With("lazy-dfa").Add(200)
	r.Gauge("queue_depth", "Pending streams.").Set(5)
	h := r.Histogram("stream_bytes", "Stream sizes.")
	h.Observe(1)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP streams_total Streams served.
# TYPE streams_total counter
streams_total 3
# HELP backend_bytes_total Bytes by backend.
# TYPE backend_bytes_total counter
backend_bytes_total{backend="device"} 100
backend_bytes_total{backend="lazy-dfa"} 200
# HELP queue_depth Pending streams.
# TYPE queue_depth gauge
queue_depth 5
# HELP stream_bytes Stream sizes.
# TYPE stream_bytes histogram
`
	if !strings.HasPrefix(got, want) {
		t.Errorf("prometheus output mismatch:\ngot:\n%s\nwant prefix:\n%s", got, want)
	}
	// Histogram details: 2 observations, sum 4, cumulative buckets.
	for _, line := range []string{
		"stream_bytes_bucket{le=\"1\"} 1\n",
		"stream_bytes_bucket{le=\"4\"} 2\n",
		"stream_bytes_bucket{le=\"+Inf\"} 2\n",
		"stream_bytes_sum 4\n",
		"stream_bytes_count 2\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("prometheus output missing %q in:\n%s", line, got)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 1024, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	// -5 clamps to 0. Buckets (le): 1→{-5,0,1}, 2→{2}, 4→{3,4}, 1024→{1024}, +Inf→{1<<40}.
	wants := map[int]uint64{0: 3, 1: 1, 2: 2, 10: 1, histBuckets: 1}
	for i := range h.buckets {
		want := wants[i]
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "Requests.").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":    "requests_total 1",
		"/debug/vars": `"requests_total": 1`,
	} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := res.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		res.Body.Close()
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s: missing %q in:\n%s", path, want, b.String())
		}
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "")
}
