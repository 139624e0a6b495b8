package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const testSource = `
macro find(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String[] pats) { some (String p : pats) find(p); }
`

func testSpec(name string) serve.DesignSpec {
	return serve.DesignSpec{
		Name:   name,
		Source: testSource,
		Args:   []rapid.Value{rapid.Strings([]string{"abc", "bcd"})},
	}
}

// testReplica is one rapidserve instance on a real listener, killable and
// restartable on the same port — the in-process stand-in for a replica
// process the chaos harness can SIGKILL. Its handler sits behind an
// atomic so tests can wound it mid-flight without racing the server.
type testReplica struct {
	t        *testing.T
	addr     string
	serveCfg serve.Config

	handler atomic.Value // handlerBox

	mu      sync.Mutex
	srv     *serve.Server
	httpSrv *http.Server
}

func startReplica(t *testing.T, addr string, cfg serve.Config) *testReplica {
	t.Helper()
	rep := &testReplica{t: t, addr: addr, serveCfg: cfg}
	rep.start()
	t.Cleanup(rep.stop)
	return rep
}

func (rep *testReplica) start() {
	rep.t.Helper()
	addr := rep.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	s, err := serve.New(rep.serveCfg)
	if err != nil {
		rep.t.Fatal(err)
	}
	if _, err := s.AddDesign(testSpec("d")); err != nil {
		rep.t.Fatal(err)
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 200 {
			rep.t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.handler.Store(handlerBox{s.Handler()})
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep.handler.Load().(handlerBox).h.ServeHTTP(w, r)
	})}
	go func() { _ = httpSrv.Serve(ln) }()

	rep.mu.Lock()
	rep.addr = ln.Addr().String()
	rep.srv = s
	rep.httpSrv = httpSrv
	rep.mu.Unlock()
}

// kill abruptly closes the listener and every live connection — the
// closest in-process analog of SIGKILL for the traffic path.
func (rep *testReplica) kill() {
	rep.mu.Lock()
	httpSrv := rep.httpSrv
	rep.httpSrv = nil
	srv := rep.srv
	rep.srv = nil
	rep.mu.Unlock()
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

func (rep *testReplica) stop() { rep.kill() }

// handlerBox gives atomic.Value a single concrete type to hold.
type handlerBox struct{ h http.Handler }

// wound swaps the replica's handler (see start: reads are atomic).
func (rep *testReplica) wound(wrap func(http.Handler) http.Handler) {
	rep.handler.Store(handlerBox{wrap(rep.handler.Load().(handlerBox).h)})
}

// testGatewayConfig is tuned for fast probes and tight backoffs.
func testGatewayConfig(replicas []string, reg *telemetry.Registry) Config {
	return Config{
		Replicas:      replicas,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		RetryAfter:    20 * time.Millisecond,
		Policy: resilience.Policy{
			MaxAttempts: 10,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		},
		Breaker:   resilience.BreakerConfig{FailureThreshold: 3, OpenTimeout: 100 * time.Millisecond},
		Telemetry: reg,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitAllReady waits until every replica has passed a probe, so routing
// order is deterministic from here on.
func waitAllReady(t *testing.T, g *Gateway) {
	t.Helper()
	waitFor(t, "all replicas ready", func() bool {
		for _, rep := range g.table.Load().replicas {
			if !rep.ready.Load() {
				return false
			}
		}
		return true
	})
}

func mustGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
	})
	return g
}

func postMatch(t *testing.T, h http.Handler, design, text, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"design": design, "text": text})
	req := httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRingCandidates(t *testing.T) {
	ids := []string{"a:1", "b:1", "c:1"}
	r := newRing(ids, 64)
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("design-%d", i)
		cands := r.candidates(key)
		if len(cands) != 3 {
			t.Fatalf("candidates(%q) = %v, want all 3 replicas", key, cands)
		}
		seen := map[int]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("candidates(%q) = %v has duplicates", key, cands)
			}
			seen[c] = true
		}
		again := r.candidates(key)
		for j := range cands {
			if cands[j] != again[j] {
				t.Fatalf("candidates(%q) not deterministic: %v vs %v", key, cands, again)
			}
		}
		counts[cands[0]]++
	}
	// Every replica owns a reasonable share of keys.
	for i := 0; i < 3; i++ {
		if counts[i] < 20 {
			t.Fatalf("replica %d owns only %d/200 keys: %v", i, counts[i], counts)
		}
	}
}

// TestMatchFailover wounds the design's owner so every match there is
// refused with 503; requests must transparently fail over to the
// survivor, the wounded replica's breaker must open after the threshold,
// and the failover metrics must account for every retried leg.
func TestMatchFailover(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, reg))
	waitAllReady(t, g)

	if rec := postMatch(t, g.Handler(), "d", "xxabc", ""); rec.Code != http.StatusOK {
		t.Fatalf("baseline match: %d %s", rec.Code, rec.Body)
	}

	owner := g.table.Load().ring.candidates("d")[0]
	victim := []*testReplica{r1, r2}[owner]
	victim.wound(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/match" {
				serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeDraining,
					"wounded", 10*time.Millisecond)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})

	for i := 0; i < 5; i++ {
		rec := postMatch(t, g.Handler(), "d", "xxabc", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("match %d after wound: %d %s", i, rec.Code, rec.Body)
		}
		var out struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Count == 0 {
			t.Fatalf("match %d after wound: bad body %s (err %v)", i, rec.Body, err)
		}
	}

	// Three 503s tripped the breaker (threshold 3); later matches skipped
	// the victim entirely.
	victimID := g.table.Load().replicas[owner].id
	snap := reg.Snapshot()
	if got := snap.Counter(metricRequests, "replica", victimID, "outcome", "retried"); got != 3 {
		t.Fatalf("victim retried legs = %d, want 3 (breaker should cut it off)", got)
	}
	if got := snap.Counter(metricFailovers, "path", "match"); got != 3 {
		t.Fatalf("match failovers = %d, want 3", got)
	}
	if got := snap.Counter(metricBreakerTransitions, "replica", victimID, "to", "open"); got != 1 {
		t.Fatalf("breaker open transitions = %d, want 1", got)
	}
}

// TestBreakerRecoversViaProbes: kill a replica, let probe failures trip
// its breaker, restart it on the same address — the active prober alone
// must walk the breaker back to closed and readmit the replica, with no
// live traffic required.
func TestBreakerRecoversViaProbes(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, nil))
	waitAllReady(t, g)

	owner := g.table.Load().ring.candidates("d")[0]
	victim := []*testReplica{r1, r2}[owner]
	victim.kill()

	waitFor(t, "probe failures to open the breaker", func() bool {
		return g.table.Load().replicas[owner].breaker.State() != resilience.BreakerClosed
	})
	// Matches keep succeeding on the survivor the whole time.
	if rec := postMatch(t, g.Handler(), "d", "xxabc", ""); rec.Code != http.StatusOK {
		t.Fatalf("match while victim down: %d %s", rec.Code, rec.Body)
	}

	victim.start()
	waitFor(t, "breaker to close after restart", func() bool {
		rep := g.table.Load().replicas[owner]
		return rep.breaker.State() == resilience.BreakerClosed && rep.ready.Load()
	})
	if rec := postMatch(t, g.Handler(), "d", "xxabc", ""); rec.Code != http.StatusOK {
		t.Fatalf("match after recovery: %d %s", rec.Code, rec.Body)
	}
}

// TestQuotaExhaustedNotFailedOver: a tenant out of budget on its design's
// owner replica must get the 429 relayed, not a second helping from
// another replica's bucket.
func TestQuotaExhaustedNotFailedOver(t *testing.T) {
	cfg := serve.Config{TenantRate: 0.001, TenantBurst: 1}
	r1 := startReplica(t, "", cfg)
	r2 := startReplica(t, "", cfg)
	reg := telemetry.NewRegistry()
	g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, reg))
	waitAllReady(t, g)

	if rec := postMatch(t, g.Handler(), "d", "xxabc", "alice"); rec.Code != http.StatusOK {
		t.Fatalf("within burst: %d %s", rec.Code, rec.Body)
	}
	rec := postMatch(t, g.Handler(), "d", "xxabc", "alice")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over quota through gateway: %d %s, want 429", rec.Code, rec.Body)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != serve.CodeQuotaExhausted {
		t.Fatalf("over quota body %s, want code %q", rec.Body, serve.CodeQuotaExhausted)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("quota relay lost the Retry-After header")
	}
	if got := reg.Snapshot().Counter(metricFailovers, "path", "match"); got != 0 {
		t.Fatalf("quota exhaustion caused %d failovers; it must be relayed", got)
	}
}

// TestGatewayDraining: once Shutdown begins, new requests get a typed
// draining refusal.
func TestGatewayDraining(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	g := mustGateway(t, testGatewayConfig([]string{r1.addr}, nil))
	g.draining.Store(true)
	rec := postMatch(t, g.Handler(), "d", "xxabc", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining match: %d, want 503", rec.Code)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != serve.CodeDraining {
		t.Fatalf("draining body %s, want code %q", rec.Body, serve.CodeDraining)
	}
}

// TestUnknownDesignRelayed: a deterministic 404 is relayed, not retried
// around the fleet.
func TestUnknownDesignRelayed(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	g := mustGateway(t, testGatewayConfig([]string{r1.addr}, reg))
	waitAllReady(t, g)
	rec := postMatch(t, g.Handler(), "nope", "x", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown design: %d %s, want 404", rec.Code, rec.Body)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != serve.CodeNotFound {
		t.Fatalf("unknown design body %s, want code %q", rec.Body, serve.CodeNotFound)
	}
	if got := reg.Snapshot().Counter(metricRequests, "replica", g.table.Load().replicas[0].id, "outcome", "relayed_error"); got != 1 {
		t.Fatalf("relayed_error = %d, want 1", got)
	}
}

// decodeStream reads the gateway's NDJSON response into lines.
func decodeStream(t *testing.T, body io.Reader) []streamLine {
	t.Helper()
	var lines []streamLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkStreamComplete asserts the zero-loss contract: exactly one line
// per record, in order, each either a success or a typed error.
func checkStreamComplete(t *testing.T, lines []streamLine, records [][]byte, offsets []int) (ok, failed int) {
	t.Helper()
	if len(lines) != len(records) {
		t.Fatalf("stream returned %d lines for %d records — records were lost", len(lines), len(records))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d; order or accounting broken", i, line.Index)
		}
		if line.Offset != offsets[i] {
			t.Fatalf("record %d offset %d, want %d (rebase broken)", i, line.Offset, offsets[i])
		}
		if line.Error == "" {
			ok++
			for _, rep := range line.Reports {
				if rep.Offset < offsets[i] || rep.Offset >= offsets[i]+len(records[i]) {
					t.Fatalf("record %d report offset %d outside record [%d,%d)",
						i, rep.Offset, offsets[i], offsets[i]+len(records[i]))
				}
			}
		} else {
			failed++
			if line.Code == "" {
				t.Fatalf("record %d failed without a typed code: %s", i, line.Error)
			}
		}
	}
	return ok, failed
}

// TestStreamFailoverMidStream wounds the owner replica so it tears the
// connection partway through the NDJSON response; the gateway must resume
// the unacknowledged suffix on the survivor with indexes, offsets, and
// report coordinates intact.
func TestStreamFailoverMidStream(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, reg))
	waitAllReady(t, g)

	owner := g.table.Load().ring.candidates("d")[0]
	dieMidStream([]*testReplica{r1, r2}[owner], 2)

	recs := [][]byte{
		[]byte("xxabcxx"), []byte("yyy"), []byte("zzabc"),
		[]byte("bcdbcd"), []byte("qqqq"), []byte("ababc"),
	}
	stream := rapid.FrameRecords(recs...)
	records, offsets := rapid.SplitRecords(stream)

	req := httptest.NewRequest(http.MethodPost, "/v1/match/stream?design=d", bytes.NewReader(stream))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	lines := decodeStream(t, rec.Body)
	ok, failed := checkStreamComplete(t, lines, records, offsets)
	if failed != 0 {
		t.Fatalf("%d records failed; the survivor should have served them all", failed)
	}
	if ok != len(records) {
		t.Fatalf("ok = %d, want %d", ok, len(records))
	}
	// "ababc" (resumed on the survivor) matches "abc": its report must
	// have survived the rebase.
	if len(lines[5].Reports) == 0 {
		t.Fatal("record 5 (resumed on the survivor) lost its reports")
	}
	if got := reg.Snapshot().Counter(metricFailovers, "path", "stream"); got == 0 {
		t.Fatal("no stream failover recorded")
	}
}

// TestStreamBodiesBeyondFirstRead is the gateway half of the serve
// regression of the same name: over real TCP, streams of 4 KiB, 64 KiB
// and 1 MiB (512 B records) come back whole — every record answered, no
// error line, reports equal to Engine.RunRecords over the whole stream —
// both straight through and when the owner dies two lines in and the
// survivor resumes a suffix that is itself far longer than one read. The
// 96 KiB records answer with result lines far longer than 64 KiB, which
// the gateway's scanner must grow to hold.
func TestStreamBodiesBeyondFirstRead(t *testing.T) {
	prog, err := rapid.Parse(testSource)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(testSpec("d").Args...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, failover := range []bool{false, true} {
		for _, c := range []struct{ n, size int }{{8, 512}, {128, 512}, {2048, 512}, {4, 96 << 10}} {
			n := c.n
			t.Run(fmt.Sprintf("failover=%v/%dx%dB", failover, n, c.size), func(t *testing.T) {
				r1 := startReplica(t, "", serve.Config{})
				r2 := startReplica(t, "", serve.Config{})
				reg := telemetry.NewRegistry()
				g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, reg))
				waitAllReady(t, g)
				if failover {
					owner := g.table.Load().ring.candidates("d")[0]
					dieMidStream([]*testReplica{r1, r2}[owner], 2)
				}
				front := httptest.NewServer(g.Handler())
				defer front.Close()

				recs := make([][]byte, n)
				for i := range recs {
					recs[i] = bytes.Repeat([]byte{'x', 'y', 'z', 'w'}, c.size/4)
					if i%3 != 2 {
						copy(recs[i][(i*37)%500:], "abcd")
						copy(recs[i][(i*101)%500:], "bcd")
					}
				}
				if c.size > 64<<10 {
					copy(recs[1], bytes.Repeat([]byte("abcd"), c.size/8)) // a report every few bytes
				}
				stream := rapid.FrameRecords(recs...)
				want, err := eng.RunRecords(context.Background(), stream)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(front.URL+"/v1/match/stream?design=d", "application/octet-stream", bytes.NewReader(stream))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("stream status %d", resp.StatusCode)
				}
				lines := decodeStream(t, resp.Body)
				records, offsets := rapid.SplitRecords(stream)
				if _, failed := checkStreamComplete(t, lines, records, offsets); failed != 0 {
					t.Fatalf("%d records came back as error lines, first: %+v", failed, firstError(lines))
				}
				for i, line := range lines {
					if len(line.Reports) != len(want[i].Reports) {
						t.Fatalf("record %d: %d reports, RunRecords has %d", i, len(line.Reports), len(want[i].Reports))
					}
					for k, rep := range line.Reports {
						if w := want[i].Reports[k]; rep.Offset != w.Offset || rep.Code != w.Code {
							t.Fatalf("record %d report %d = %+v, RunRecords has %+v", i, k, rep, w)
						}
					}
				}
				if got := reg.Snapshot().Counter(metricFailovers, "path", "stream"); (got > 0) != failover {
					t.Fatalf("stream failovers = %d with failover=%v", got, failover)
				}
			})
		}
	}
}

func firstError(lines []streamLine) streamLine {
	for _, line := range lines {
		if line.Error != "" {
			return line
		}
	}
	return streamLine{}
}

// dieMidStream wounds rep so that it tears the connection of the first
// stream it serves after lines result lines; later streams are untouched.
func dieMidStream(rep *testReplica, lines int) {
	var once sync.Once
	rep.wound(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/match/stream" {
				once.Do(func() { w = &lineKiller{ResponseWriter: w, remaining: lines} })
			}
			inner.ServeHTTP(w, r)
		})
	})
}

// lineKiller aborts the response after remaining newlines have been
// written — a replica dying mid-stream.
type lineKiller struct {
	http.ResponseWriter
	remaining int
}

func (l *lineKiller) Write(p []byte) (int, error) {
	if l.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	l.remaining -= bytes.Count(p, []byte("\n"))
	return l.ResponseWriter.Write(p)
}

func (l *lineKiller) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamAllReplicasDown: with the whole fleet gone, every record gets
// a typed upstream_unavailable error line — the stream is never silently
// truncated.
func TestStreamAllReplicasDown(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	cfg := testGatewayConfig([]string{r1.addr}, nil)
	cfg.Policy.MaxAttempts = 3
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	r1.kill()

	stream := rapid.FrameRecords([]byte("xxabc"), []byte("yy"))
	records, offsets := rapid.SplitRecords(stream)
	req := httptest.NewRequest(http.MethodPost, "/v1/match/stream?design=d", bytes.NewReader(stream))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d", rec.Code)
	}
	lines := decodeStream(t, rec.Body)
	_, failed := checkStreamComplete(t, lines, records, offsets)
	if failed != len(records) {
		t.Fatalf("failed = %d, want all %d records refused", failed, len(records))
	}
	for i, line := range lines {
		if line.Code != serve.CodeUpstreamUnavailable {
			t.Fatalf("record %d code %q, want %q", i, line.Code, serve.CodeUpstreamUnavailable)
		}
		if line.RetryAfterMS <= 0 {
			t.Fatalf("record %d refusal lacks retry_after_ms", i)
		}
	}
}

// TestReplicasEndpoint: the introspection endpoint reports the routing
// digest plus readiness, breaker state, in-flight count, and last probe
// error per replica.
func TestReplicasEndpoint(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	g := mustGateway(t, testGatewayConfig([]string{r1.addr}, nil))
	waitAllReady(t, g)
	req := httptest.NewRequest(http.MethodGet, "/v1/replicas", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	var fleet FleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil {
		t.Fatalf("bad /v1/replicas body %s: %v", rec.Body, err)
	}
	if fleet.Digest == "" || fleet.Digest != g.Digest() {
		t.Fatalf("digest = %q, want the gateway's %q", fleet.Digest, g.Digest())
	}
	if fleet.DefaultReplication != 1 || fleet.Vnodes != 64 {
		t.Fatalf("fleet params = %+v, want default_replication 1, vnodes 64", fleet)
	}
	statuses := fleet.Replicas
	if len(statuses) != 1 || !statuses[0].Ready || statuses[0].Breaker != "closed" {
		t.Fatalf("statuses = %+v, want one ready replica with a closed breaker", statuses)
	}
	if statuses[0].LastError != "" || statuses[0].InFlight != 0 {
		t.Fatalf("idle ready replica reports %+v, want no last_error and zero inflight", statuses[0])
	}

	// A killed replica's status must surface the probe failure.
	r1.kill()
	waitFor(t, "probe failure to surface in last_error", func() bool {
		sts := g.Replicas()
		return !sts[0].Ready && sts[0].LastError != ""
	})
}
