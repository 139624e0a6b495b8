package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	rapid "repro"
	"repro/internal/telemetry"
)

func newJob(s string) *job {
	return &job{input: []byte(s), done: make(chan rapid.BatchResult, 1), enqueued: time.Now()}
}

// TestCollectBatchSizeBound: a backlog fills the batch to max immediately,
// leaving the rest queued.
func TestCollectBatchSizeBound(t *testing.T) {
	queue := make(chan *job, 16)
	for i := 0; i < 7; i++ {
		queue <- newJob("queued")
	}
	batch := collectBatch(queue, newJob("first"), 4)
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want max=4", len(batch))
	}
	if len(queue) != 4 {
		t.Fatalf("%d jobs left queued, want 4", len(queue))
	}
	if string(batch[0].input) != "first" {
		t.Fatal("first job not at batch head")
	}
}

// TestCollectBatchEmptyQueue: with nothing else queued the first job ships
// alone and at once — collectBatch has nothing to wait on, so a regression
// that blocks here hangs the test instead of slowing it.
func TestCollectBatchEmptyQueue(t *testing.T) {
	queue := make(chan *job, 16)
	first := newJob("first")
	batch := collectBatch(queue, first, 8)
	if len(batch) != 1 || batch[0] != first {
		t.Fatalf("batch %v, want the first job alone", batch)
	}
}

// TestCollectBatchClosedQueue: a closed queue yields what it still holds
// and ends collection.
func TestCollectBatchClosedQueue(t *testing.T) {
	queue := make(chan *job, 16)
	queue <- newJob("queued")
	close(queue)
	batch := collectBatch(queue, newJob("first"), 8)
	if len(batch) != 2 {
		t.Fatalf("batch size %d, want 2", len(batch))
	}
}

// TestCollectBatchMaxOne: with MaxBatch 1 nothing coalesces.
func TestCollectBatchMaxOne(t *testing.T) {
	queue := make(chan *job, 16)
	queue <- newJob("queued")
	if batch := collectBatch(queue, newJob("first"), 1); len(batch) != 1 {
		t.Fatalf("batch size %d, want 1", len(batch))
	}
}

// blockingEngine is an engine double: every batch announces its size
// on entered and then holds the dispatcher until release yields a value
// (or is closed), so a test decides what queues up behind it.
type blockingEngine struct {
	entered chan int // buffered for every batch a test can run: announcing never blocks
	release chan struct{}
}

func (e *blockingEngine) RunBatchSettled(_ context.Context, inputs [][]byte) []rapid.BatchResult {
	e.entered <- len(inputs)
	<-e.release
	out := make([]rapid.BatchResult, len(inputs))
	for i, in := range inputs {
		out[i].Reports = []rapid.Report{{Offset: len(in)}}
	}
	return out
}

// mountEngine mounts a design over eng the way AddDesign does after
// compiling. Its Hash is empty, so a hot reload of name replaces it.
func mountEngine(s *Server, name string, eng batchEngine) {
	d := &design{info: DesignInfo{Name: name, Backend: BackendEngine}, engine: eng}
	d.queue = make(chan *job, s.cfg.QueueDepth)
	d.tel = s.tel.forDesign(name)
	s.mu.Lock()
	s.designs[name] = d
	s.order = append(s.order, name)
	s.mu.Unlock()
	s.dispatchers.Add(1)
	go s.dispatch(d)
}

// TestBackpressureBatching: a batch is exactly what was admitted while the
// previous one ran, capped at MaxBatch — below the cap, at it and above it
// — and Shutdown answers every admitted job.
func TestBackpressureBatching(t *testing.T) {
	const maxBatch = 4
	for _, n := range []int{1, 3, 4, 7} {
		t.Run(fmt.Sprintf("admit-%d", n), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			eng := &blockingEngine{entered: make(chan int, 1+n), release: make(chan struct{})}
			s := mustNew(t, Config{QueueDepth: 16, MaxBatch: maxBatch, Telemetry: reg})
			mountEngine(s, "d", eng)

			var answered atomic.Int64
			var wg sync.WaitGroup
			admit := func(k int) {
				for i := 0; i < k; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, reports, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xx")); err == nil && len(reports) == 1 {
							answered.Add(1)
						}
					}()
				}
			}

			// An idle dispatcher takes the first job alone, at once.
			admit(1)
			if got := <-eng.entered; got != 1 {
				t.Fatalf("idle dispatcher ran a batch of %d, want 1", got)
			}
			// While that batch is held, n more are admitted and wait.
			admit(n)
			waitGauge(t, reg, metricQueueDepth, "design", "d", int64(n))
			eng.release <- struct{}{}
			want := min(n, maxBatch)
			if got := <-eng.entered; got != want {
				t.Fatalf("batch after %d admissions has %d jobs, want %d", n, got, want)
			}
			// Let everything through and drain: no admitted job is lost.
			close(eng.release)
			wg.Wait()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := answered.Load(); got != int64(1+n) {
				t.Fatalf("%d of %d admitted jobs answered", got, 1+n)
			}
			if depth := gauge(reg, metricQueueDepth, "design", "d"); depth != 0 {
				t.Fatalf("queue depth %d after drain, want 0", depth)
			}
		})
	}
}

// TestIdleFloor: on an idle design a request's admission →
// completion time is its work, not a wait. A sub-millisecond Go timer
// fires after ≈ 1.15 ms, so any timed wait on this path puts the median
// above 1100 µs; without one it is tens of microseconds.
func TestIdleFloor(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{Telemetry: reg})
	if _, err := s.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	const calls = 200
	for i := 0; i < calls; i++ {
		if resp, _ := postMatch(t, ts.URL, matchRequest{Design: "d", Text: "xxabcdxx"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}
	median := medianLatencyBound(t, reg, "d")
	t.Logf("median %s bucket: ≤ %v µs", metricLatency, median)
	if median >= 500 {
		t.Fatalf("median %s on an idle design is in the ≤ %v µs bucket, want under 500 µs", metricLatency, median)
	}
}

// medianLatencyBound returns the upper bound of the histogram bucket that
// holds the median of design's admission → completion latencies.
func medianLatencyBound(t *testing.T, reg *telemetry.Registry, design string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != metricLatency {
			continue
		}
		for _, se := range m.Series {
			if se.Labels[0].Value != design {
				continue
			}
			for _, b := range se.Buckets {
				if b.Count > se.Count/2 {
					return b.UpperBound
				}
			}
		}
	}
	t.Fatalf("no %s series for design %q", metricLatency, design)
	return 0
}

// TestRecordScanner carves framed records and tracks their stream offsets
// per the flattened-array convention.
func TestRecordScanner(t *testing.T) {
	stream := rapid.FrameStrings("ab", "cde", "f")
	sc := newRecordScanner(bytes.NewReader(stream))
	type rec struct {
		text   string
		offset int
	}
	// FrameStrings lays out: \xff ab \xff cde \xff f \xff — "ab" starts at
	// stream offset 1, "cde" at 4, "f" at 8.
	want := []rec{{"ab", 1}, {"cde", 4}, {"f", 8}}
	var got []rec
	for {
		r, off, err := sc.next()
		if r == nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		got = append(got, rec{string(r), off})
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRecordScannerUnterminated: a final record without a trailing
// separator is still delivered.
func TestRecordScannerUnterminated(t *testing.T) {
	stream := append([]byte{rapid.StartOfInput}, "tail"...)
	sc := newRecordScanner(bytes.NewReader(stream))
	r, off, err := sc.next()
	if err != nil || string(r) != "tail" || off != 1 {
		t.Fatalf("got (%q, %d, %v), want (tail, 1, nil)", r, off, err)
	}
	if r, _, err := sc.next(); r != nil || err != io.EOF {
		t.Fatalf("got (%q, %v) after final record, want (nil, EOF)", r, err)
	}
}

// TestRecordScannerEmptyRecords: consecutive separators produce no empty
// records.
func TestRecordScannerEmptyRecords(t *testing.T) {
	stream := []byte{rapid.StartOfInput, rapid.StartOfInput, 'a', rapid.StartOfInput, rapid.StartOfInput}
	sc := newRecordScanner(bytes.NewReader(stream))
	r, off, err := sc.next()
	if err != nil || string(r) != "a" || off != 2 {
		t.Fatalf("got (%q, %d, %v), want (a, 2, nil)", r, off, err)
	}
	if r, _, err := sc.next(); r != nil || err != io.EOF {
		t.Fatalf("got (%q, %v), want (nil, EOF)", r, err)
	}
}

// TestRecordScannerLargeRecord: records spanning multiple reads survive
// the chunked refill path with correct offsets.
func TestRecordScannerLargeRecord(t *testing.T) {
	big := strings.Repeat("x", 100<<10)
	stream := rapid.FrameStrings("a", big, "b")
	sc := newRecordScanner(shortReads(bytes.NewReader(stream), 7))
	wantOff := []int{1, 3, 3 + len(big) + 1}
	wantText := []string{"a", big, "b"}
	for i := range wantText {
		r, off, err := sc.next()
		if err != nil {
			t.Fatal(err)
		}
		if string(r) != wantText[i] || off != wantOff[i] {
			t.Fatalf("record %d: len=%d off=%d, want len=%d off=%d", i, len(r), off, len(wantText[i]), wantOff[i])
		}
	}
}

// TestRecordScannerOneByteReads: a body that arrives one byte at a time,
// with a record longer than the scanner's first buffer and a final record
// without a trailing separator, gives the records and offsets SplitRecords
// finds in the whole stream. Records are copied as they come, since each
// is a view valid only until the next call.
func TestRecordScannerOneByteReads(t *testing.T) {
	big := strings.Repeat("y", 10<<10)
	stream := append(rapid.FrameStrings("a", big, "", "bc"), "tail"...)
	wantRecs, wantOffs := rapid.SplitRecords(stream)
	sc := newRecordScanner(iotest.OneByteReader(bytes.NewReader(stream)))
	var recs [][]byte
	var offs []int
	for {
		r, off, err := sc.next()
		if r == nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		recs, offs = append(recs, bytes.Clone(r)), append(offs, off)
	}
	if !reflect.DeepEqual(recs, wantRecs) || !reflect.DeepEqual(offs, wantOffs) {
		t.Fatalf("got %d records at %v, want %d at %v", len(recs), offs, len(wantRecs), wantOffs)
	}
}

// shortReads wraps r so every Read returns at most n bytes, exercising
// refill boundaries.
func shortReads(r io.Reader, n int) io.Reader { return &smallReader{r: r, n: n} }

type smallReader struct {
	r io.Reader
	n int
}

func (s *smallReader) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}
