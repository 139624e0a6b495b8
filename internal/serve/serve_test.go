package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/telemetry"
)

// testSource is a small multi-pattern design: report wherever any of the
// argument strings occurs.
const testSource = `
macro find(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String[] pats) { some (String p : pats) find(p); }
`

func testArgs() []rapid.Value {
	return []rapid.Value{rapid.Strings([]string{"abc", "bcd"})}
}

func testSpec(name, backend string) DesignSpec {
	return DesignSpec{Name: name, Source: testSource, Args: testArgs(), Backend: backend}
}

func compileTestDesign(t *testing.T) *rapid.Design {
	t.Helper()
	prog, err := rapid.Parse(testSource)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(testArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	return design
}

func reportSet(reports []rapid.Report) []string {
	set := map[string]bool{}
	for _, r := range reports {
		set[fmt.Sprintf("%d/%d", r.Offset, r.Code)] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func jsonReportSet(reports []reportJSON) []string {
	raw := make([]rapid.Report, len(reports))
	for i, r := range reports {
		raw[i] = rapid.Report{Offset: r.Offset, Code: r.Code}
	}
	return reportSet(raw)
}

func postMatch(t *testing.T, url string, req matchRequest) (*http.Response, matchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out matchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestMatchParity checks that the served single-shot result equals a
// direct reference-simulator run, on both the batched engine mode and the
// failover-chain mode.
func TestMatchParity(t *testing.T) {
	design := compileTestDesign(t)
	input := "xxabcdxxabcx"
	want, err := design.RunBytes([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{BackendEngine, BackendFailover, "device"} {
		t.Run(backend, func(t *testing.T) {
			s := mustNew(t, Config{})
			if _, err := s.AddDesign(testSpec("d", backend)); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			}()
			resp, out := postMatch(t, ts.URL, matchRequest{Design: "d", Text: input})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if got, wantSet := jsonReportSet(out.Reports), reportSet(want); !equalStrings(got, wantSet) {
				t.Fatalf("served reports %v != direct run %v", got, wantSet)
			}
			if out.Backend != backend {
				t.Fatalf("backend %q, want %q", out.Backend, backend)
			}
		})
	}
}

// TestArtifactCache checks that two designs with the same program hash
// share one compiled artifact.
func TestArtifactCache(t *testing.T) {
	s := mustNew(t, Config{})
	a, err := s.AddDesign(testSpec("a", ""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddDesign(testSpec("b", "failover"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same program hashed differently: %s vs %s", a.Hash, b.Hash)
	}
	if len(s.compiled) != 1 {
		t.Fatalf("compiled-artifact cache has %d entries, want 1", len(s.compiled))
	}
	other, err := s.AddDesign(DesignSpec{Name: "c", Source: testSource,
		Args: []rapid.Value{rapid.Strings([]string{"zzz"})}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash == a.Hash {
		t.Fatal("different args produced the same program hash")
	}
	if len(s.compiled) != 2 {
		t.Fatalf("compiled-artifact cache has %d entries, want 2", len(s.compiled))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// blockingMatcher blocks every Match until released, signalling entry —
// the deterministic way to hold the dispatcher busy while the admission
// queue fills.
type blockingMatcher struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func (m *blockingMatcher) Name() string { return "blocking" }
func (m *blockingMatcher) Match(ctx context.Context, input []byte) ([]rapid.Report, error) {
	m.calls.Add(1)
	select {
	case m.entered <- struct{}{}:
	default:
	}
	select {
	case <-m.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return []rapid.Report{{Offset: len(input)}}, nil
}

// TestAdmissionBackpressure fills the bounded queue deterministically and
// checks that over-capacity requests are refused with 429 + Retry-After
// while admitted ones all complete, and that the queue gauge never
// exceeds its cap.
func TestAdmissionBackpressure(t *testing.T) {
	const queueDepth = 4
	reg := telemetry.NewRegistry()
	bm := &blockingMatcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := mustNew(t, Config{QueueDepth: queueDepth, RetryAfter: 2 * time.Second, Telemetry: reg})
	if _, err := s.AddDesign(DesignSpec{Name: "d", Matcher: bm}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() *http.Response {
		body, _ := json.Marshal(matchRequest{Design: "d", Text: "x"})
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// One request enters the dispatcher and blocks there.
	var admitted sync.WaitGroup
	admitted.Add(1)
	go func() { defer admitted.Done(); post() }()
	<-bm.entered

	// Now fill the queue to its cap.
	for i := 0; i < queueDepth; i++ {
		admitted.Add(1)
		go func() { defer admitted.Done(); post() }()
	}
	waitGauge(t, reg, metricQueueDepth, "design", "d", queueDepth)

	// Everything beyond the cap must be refused immediately with 429 and
	// a Retry-After hint — the admission controller, not an unbounded
	// queue.
	for i := 0; i < 3; i++ {
		resp := post()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-capacity request got %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("Retry-After = %q, want \"2\"", ra)
		}
	}
	if depth := gauge(reg, metricQueueDepth, "design", "d"); depth > queueDepth {
		t.Fatalf("queue depth %d exceeds cap %d", depth, queueDepth)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(metricRejections, "design", "d", "reason", "capacity"); got != 3 {
		t.Fatalf("capacity rejections = %d, want 3", got)
	}

	// Release the matcher: every admitted request completes.
	close(bm.release)
	admitted.Wait()
	if got := bm.calls.Load(); got != queueDepth+1 {
		t.Fatalf("matcher served %d requests, want %d", got, queueDepth+1)
	}
	waitGauge(t, reg, metricQueueDepth, "design", "d", 0)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrain proves the graceful-drain contract: a request in flight when
// Shutdown starts completes, requests arriving during the drain are
// refused with 503 + Retry-After, and Shutdown returns cleanly.
func TestDrain(t *testing.T) {
	bm := &blockingMatcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := mustNew(t, Config{Addr: "127.0.0.1:0", RetryAfter: time.Second})
	if _, err := s.AddDesign(DesignSpec{Name: "d", Matcher: bm}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	// An in-flight request blocks inside the dispatcher.
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(matchRequest{Design: "d", Text: "hello"})
		resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()
	<-bm.entered

	// Start draining.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Readiness flips and new admissions are refused while the in-flight
	// request is still executing.
	waitFor(t, func() bool { return s.draining.Load() })
	resp, err := http.Get(base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
		}
	}
	body, _ := json.Marshal(matchRequest{Design: "d", Text: "late"})
	if resp, err := http.Post(base+"/v1/match", "application/json", bytes.NewReader(body)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("late request = %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("late request missing Retry-After")
		}
	}

	// The in-flight request must complete successfully, then the drain
	// finishes cleanly.
	close(bm.release)
	res := <-inflight
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: status=%d err=%v", res.status, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStreamEndpointParity streams framed records through the chunked
// endpoint and checks the rebased report offsets equal a whole-stream
// run, per the RunRecords convention.
func TestStreamEndpointParity(t *testing.T) {
	design := compileTestDesign(t)
	records := []string{"xxabc", "bcdxx", "noope", "abcd"}
	stream := rapid.FrameStrings(records...)
	want, err := design.RunBytes(stream)
	if err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{})
	if _, err := s.AddDesign(testSpec("d", "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	resp, err := http.Post(ts.URL+"/v1/match/stream?design=d", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got []rapid.Report
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for {
		var line streamResult
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("record %d: %s", line.Index, line.Error)
		}
		for _, r := range line.Reports {
			got = append(got, rapid.Report{Offset: r.Offset, Code: r.Code})
		}
		lines++
	}
	if lines != len(records) {
		t.Fatalf("got %d result lines, want %d", lines, len(records))
	}
	if gotSet, wantSet := reportSet(got), reportSet(want); !equalStrings(gotSet, wantSet) {
		t.Fatalf("streamed reports %v != whole-stream run %v", gotSet, wantSet)
	}
}

// testRecords builds n deterministic records of size bytes: filler with
// the test design's patterns planted at positions that vary per record
// (every third record matches nothing).
func testRecords(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		rec := bytes.Repeat([]byte{'x', 'y', 'z', 'w'}, size/4)
		if i%3 != 2 {
			copy(rec[(i*37)%(size-8):], "abcd")
			copy(rec[(i*101)%(size-8):], "bcd")
		}
		recs[i] = rec
	}
	return recs
}

// TestStreamBodiesBeyondFirstRead is the regression for the truncation
// defect: the handler flushes a result line per record while it is still
// reading the body, and HTTP/1 net/http used to close the request body at
// that first flush — every record past the handler's first read was
// dropped and an "invalid Read on closed Body" line took their place. Over
// real TCP, bodies of 4 KiB, 64 KiB and 1 MiB must come back whole: one
// line per record, no error line, reports equal to Engine.RunRecords over
// the whole stream. Records of 96 KiB span several of the scanner's reads
// and answer with result lines far longer than 64 KiB.
func TestStreamBodiesBeyondFirstRead(t *testing.T) {
	eng, err := compileTestDesign(t).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{})
	if _, err := s.AddDesign(testSpec("d", "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	for _, c := range []struct{ n, size int }{{8, 512}, {128, 512}, {2048, 512}, {3, 96 << 10}} {
		n := c.n
		t.Run(fmt.Sprintf("%dx%dB", n, c.size), func(t *testing.T) {
			recs := testRecords(n, c.size)
			if c.size > 64<<10 {
				copy(recs[1], bytes.Repeat([]byte("abcd"), c.size/8)) // a report every few bytes
			}
			stream := rapid.FrameRecords(recs...)
			want, err := eng.RunRecords(context.Background(), stream)
			if err != nil {
				t.Fatal(err)
			}
			if c.size > 64<<10 && len(want[1].Reports) < 4<<10 {
				t.Fatalf("record 1 has %d reports, too few for a result line over 64 KiB", len(want[1].Reports))
			}
			resp, err := http.Post(ts.URL+"/v1/match/stream?design=d", "application/octet-stream", bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			lines := 0
			for ; ; lines++ {
				var line streamResult
				if err := dec.Decode(&line); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				if line.Error != "" {
					t.Fatalf("line %d: record %d failed: %s", lines, line.Index, line.Error)
				}
				if lines >= n {
					t.Fatalf("more than %d result lines", n)
				}
				if line.Index != lines || line.Offset != want[lines].Offset {
					t.Fatalf("line %d is record %d at offset %d, want offset %d", lines, line.Index, line.Offset, want[lines].Offset)
				}
				if got, wantSet := jsonReportSet(line.Reports), reportSet(want[lines].Reports); !equalStrings(got, wantSet) {
					t.Fatalf("record %d reports %v != RunRecords %v", lines, got, wantSet)
				}
			}
			if lines != n {
				t.Fatalf("%d result lines for %d records", lines, n)
			}
		})
	}
}

// TestConcurrentHammer drives many concurrent clients against a real
// engine-mode design with a small queue under -race: every response is
// either a correct 200 or a 429 with Retry-After, no scrape ever reads a
// negative queue depth, and request accounting balances.
func TestConcurrentHammer(t *testing.T) {
	const clients = 64
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{QueueDepth: 8, MaxBatch: 4, Telemetry: reg})
	if _, err := s.AddDesign(testSpec("d", "")); err != nil {
		t.Fatal(err)
	}
	design := compileTestDesign(t)
	input := strings.Repeat("xyabcdzz", 64)
	want, err := design.RunBytes([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	wantSet := reportSet(want)

	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	// Scrape the queue gauge for as long as the clients run: the dispatcher
	// subtracts a job the moment it is received, so an admission counted
	// after its send would show here as -1. The gauge is read directly, not
	// through Snapshot, to sample as often as the scheduler allows.
	var minDepth int64 // the scraper's until scrapeDone closes
	depthGauge := s.tel.queueDepth.With("d")
	stopScrape, scrapeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				minDepth = min(minDepth, depthGauge.Value())
			}
		}
	}()

	var ok, rejected, bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, _ := json.Marshal(matchRequest{Design: "d", Text: input})
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
				if err != nil {
					bad.Add(1)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var out matchResponse
					if json.NewDecoder(resp.Body).Decode(&out) != nil ||
						!equalStrings(jsonReportSet(out.Reports), wantSet) {
						bad.Add(1)
					} else {
						ok.Add(1)
					}
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						bad.Add(1)
					} else {
						rejected.Add(1)
					}
				default:
					bad.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone
	if minDepth < 0 {
		t.Fatalf("a scrape read queue depth %d", minDepth)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d malformed responses", n)
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	snap := reg.Snapshot()
	if served := snap.Counter(metricRequests, "design", "d", "outcome", "ok"); served != uint64(ok.Load()) {
		t.Fatalf("requests_total ok=%d, clients saw %d", served, ok.Load())
	}
	if rej := snap.Counter(metricRejections, "design", "d", "reason", "capacity"); rej != uint64(rejected.Load()) {
		t.Fatalf("rejections=%d, clients saw %d", rej, rejected.Load())
	}
	if depth := gauge(reg, metricQueueDepth, "design", "d"); depth != 0 {
		t.Fatalf("queue depth %d after hammer, want 0", depth)
	}
	t.Logf("hammer: %d ok, %d rejected", ok.Load(), rejected.Load())
}

// TestMetricsEndpoint checks the serve.* family is scrapeable from the
// handler.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{Telemetry: reg})
	if _, err := s.AddDesign(testSpec("d", "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	postMatch(t, ts.URL, matchRequest{Design: "d", Text: "xxabcx"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		`rapid_serve_queue_depth{design="d"}`,
		`rapid_serve_batches_total{design="d"}`,
		`rapid_serve_batch_size_count{design="d"}`,
		`rapid_serve_requests_total{design="d",outcome="ok"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func gauge(reg *telemetry.Registry, name string, labels ...string) int64 {
	v, _ := reg.Snapshot().Value(name, labels...)
	return int64(v)
}

func waitGauge(t *testing.T, reg *telemetry.Registry, name, key, val string, want int64) {
	t.Helper()
	waitFor(t, func() bool { return gauge(reg, name, key, val) == want })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// mustNew builds a server, failing the test on config errors.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMatchIdempotencyHeaders: a 200 match response carries the design's
// program hash and the idempotency marker (what gateways key their
// response caches on); refusals carry neither.
func TestMatchIdempotencyHeaders(t *testing.T) {
	s := mustNew(t, Config{})
	info, err := s.AddDesign(testSpec("d", ""))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	resp, out := postMatch(t, ts.URL, matchRequest{Design: "d", Text: "xxabc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(DesignHashHeader); got != info.Hash || got != out.Hash {
		t.Fatalf("%s = %q, want the design hash %q (body says %q)", DesignHashHeader, got, info.Hash, out.Hash)
	}
	if got := resp.Header.Get(IdempotentHeader); got != "true" {
		t.Fatalf("%s = %q, want \"true\"", IdempotentHeader, got)
	}

	refused, _ := postMatch(t, ts.URL, matchRequest{Design: "nope", Text: "x"})
	if refused.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown design status %d, want 404", refused.StatusCode)
	}
	if refused.Header.Get(IdempotentHeader) != "" || refused.Header.Get(DesignHashHeader) != "" {
		t.Fatal("refusal carries idempotency headers; a gateway could cache an error")
	}
}
