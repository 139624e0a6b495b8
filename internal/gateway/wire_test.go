package gateway

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	rapid "repro"
	"repro/internal/bench"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// wireRequest builds a /v1/match request to base in one of the two forms:
// raw (the body is the input, the design in the query) or JSON (the input
// base64-encoded in the envelope).
func wireRequest(t *testing.T, base, design string, input []byte, raw bool) *http.Request {
	t.Helper()
	target, contentType, body := base+"/v1/match?design="+design, serve.RawContentType, input
	if !raw {
		target, contentType = base+"/v1/match", "application/json"
		body, _ = json.Marshal(map[string]string{
			"design": design, "input_base64": base64.StdEncoding.EncodeToString(input)})
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	return req
}

// wireReport is one report as the wire carries it: (offset, code, site).
type wireReport struct {
	Offset int
	Code   int
	Site   string
}

// wireDo sends req and returns the 200 reply's reports and its cache
// outcome header, failing the test on any other status.
func wireDo(t *testing.T, req *http.Request) ([]wireReport, string) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: %d %s", req.URL, resp.StatusCode, body)
	}
	var out struct{ Reports []wireReport }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Reports, resp.Header.Get(CacheHeader)
}

func sortedReports(rs []wireReport) []wireReport {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b wireReport) int {
		if a.Offset != b.Offset {
			return a.Offset - b.Offset
		}
		if a.Code != b.Code {
			return a.Code - b.Code
		}
		return strings.Compare(a.Site, b.Site)
	})
	return out
}

// TestWireParity: every bench design at one instance, on inputs of 0 B,
// 1 B, 4 KiB ± 1 and 64 KiB + 1, gives the same (offset, code, site) list
// on every route — JSON and raw, straight to serve and through the gateway
// on a miss and then a hit — and that list is the design's own, each site
// resolved from its code by the design.
func TestWireParity(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*rapid.Design{}
	inputs := map[string][]byte{}
	rng := rand.New(rand.NewSource(1))
	for _, app := range bench.All() {
		name := strings.ToLower(app.Name)
		src, args := app.RAPID(1)
		prog, err := rapid.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if designs[name], err = prog.Compile(args...); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AddDesign(serve.DesignSpec{Name: name, Source: src, Args: args}); err != nil {
			t.Fatal(err)
		}
		for len(inputs[name]) <= 64<<10 {
			inputs[name] = append(inputs[name], app.Input(rng, 16<<10)...)
		}
	}
	serveTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		serveTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cfg := testGatewayConfig([]string{serveTS.URL}, nil)
	cfg.CacheMaxBytes = 64 << 20
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	for name, d := range designs {
		for _, size := range []int{0, 1, 4<<10 - 1, 4 << 10, 4<<10 + 1, 64<<10 + 1} {
			input := inputs[name][:size]
			own, err := d.RunBytes(input)
			if err != nil {
				t.Fatal(err)
			}
			mine := make([]wireReport, len(own))
			for i, r := range own {
				mine[i] = wireReport{Offset: r.Offset, Code: r.Code, Site: d.Site(r.Code)}
			}
			want := sortedReports(mine)
			ref, _ := wireDo(t, wireRequest(t, serveTS.URL, name, input, false))
			if got := sortedReports(ref); !slices.Equal(got, want) {
				t.Fatalf("%s/%d B: serve JSON gave %d reports, the design %d", name, size, len(got), len(want))
			}
			check := func(route string, got []wireReport) {
				t.Helper()
				if !slices.Equal(got, ref) {
					t.Fatalf("%s/%d B: %s gave %v, serve JSON %v", name, size, route, got, ref)
				}
			}
			got, _ := wireDo(t, wireRequest(t, serveTS.URL, name, input, true))
			check("serve raw", got)
			for _, raw := range []bool{false, true} {
				for _, outcome := range []string{"miss", "hit"} {
					got, cache := wireDo(t, wireRequest(t, gwTS.URL, name, input, raw))
					route := map[bool]string{false: "gateway JSON ", true: "gateway raw "}[raw] + outcome
					if cache != outcome {
						t.Fatalf("%s/%d B: %s answered as a cache %q", name, size, route, cache)
					}
					check(route, got)
				}
			}
		}
	}
}

// TestStreamEscapesDesignName: a design whose name needs query escaping
// reaches the replica's stream endpoint under that name, so every record
// gets its reports rather than a not_found refusal.
func TestStreamEscapesDesignName(t *testing.T) {
	const name = "a+b&c"
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddDesign(testSpec(name)); err != nil {
		t.Fatal(err)
	}
	serveTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		serveTS.Close()
		_ = srv.Shutdown(context.Background())
	})
	g := mustGateway(t, testGatewayConfig([]string{serveTS.URL}, nil))
	waitAllReady(t, g)
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	stream := rapid.FrameStrings("xxabcx", "xbcdx")
	resp, err := http.Post(gwTS.URL+"/v1/match/stream?design="+url.QueryEscape(name),
		serve.RawContentType, bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream for %q: %d %s", name, resp.StatusCode, body)
	}
	var lines []serve.StreamResult
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var line serve.StreamResult
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 2 || lines[0].Error != "" || lines[0].Count != 1 || lines[1].Error != "" || lines[1].Count != 1 {
		t.Fatalf("stream for %q: %s", name, body)
	}
}

// TestRawBodyIsNotItsJSONTwin: a raw body whose bytes are a JSON match
// request for the same design is matched as raw input, not answered from
// that JSON request's cache entry.
func TestRawBodyIsNotItsJSONTwin(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	cfg := testGatewayConfig([]string{r1.addr}, nil)
	cfg.CacheMaxBytes = 1 << 20
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	twin := []byte(`{"design":"d","text":"xxabc"}`)
	req, _ := http.NewRequest(http.MethodPost, gwTS.URL+"/v1/match", bytes.NewReader(twin))
	req.Header.Set("Content-Type", "application/json")
	jsonReports, _ := wireDo(t, req)
	if len(jsonReports) != 1 || jsonReports[0].Offset != 4 {
		t.Fatalf("JSON request: reports %v, want one at offset 4", jsonReports)
	}
	rawReports, cache := wireDo(t, wireRequest(t, gwTS.URL, "d", twin, true))
	if cache != "miss" {
		t.Fatalf("raw twin of a cached JSON request answered as a cache %q", cache)
	}
	if want := bytes.Index(twin, []byte("abc")) + 2; len(rawReports) != 1 || rawReports[0].Offset != want {
		t.Fatalf("raw twin: reports %v, want one at offset %d", rawReports, want)
	}
}

// TestRawBodyBounds: a raw body over MaxBodyBytes is refused with 400
// bad_request by serve and by the gateway, which caches nothing and
// contacts no replica; a chunked raw body with no Content-Length is
// accepted by both.
func TestRawBodyBounds(t *testing.T) {
	const limit = 1 << 10
	r1 := startReplica(t, "", serve.Config{MaxBodyBytes: limit})
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig([]string{r1.addr}, reg)
	cfg.CacheMaxBytes = 1 << 20
	cfg.MaxBodyBytes = limit
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	var lastLength atomic.Int64
	gwTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastLength.Store(r.ContentLength)
		g.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(gwTS.Close)

	big := bytes.Repeat([]byte("xxabc"), 2*limit/5)
	for _, base := range []string{"http://" + r1.addr, gwTS.URL} {
		resp, err := http.DefaultClient.Do(wireRequest(t, base, "d", big, true))
		if err != nil {
			t.Fatal(err)
		}
		var eb serve.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Code != serve.CodeBadRequest {
			t.Fatalf("%s: oversized raw body got %d %q, want 400 %q", base, resp.StatusCode, eb.Code, serve.CodeBadRequest)
		}
	}
	snap := reg.Snapshot()
	if n, _ := snap.Value(metricCacheEntries); n != 0 {
		t.Fatalf("oversized body left %v cache entries", n)
	}
	if n := snap.Counter(metricRequests, "replica", g.table.Load().replicas[0].id, "outcome", "ok"); n != 0 {
		t.Fatalf("oversized body reached the replica %d times", n)
	}

	for _, base := range []string{"http://" + r1.addr, gwTS.URL} {
		// An io.MultiReader has no length, so the request goes out chunked.
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/match?design=d", io.MultiReader(strings.NewReader("xxabcxxbcd")))
		req.Header.Set("Content-Type", serve.RawContentType)
		reports, _ := wireDo(t, req)
		if len(reports) != 2 || reports[0].Offset != 4 || reports[1].Offset != 9 {
			t.Fatalf("%s: chunked raw body: reports %v, want offsets 4 and 9", base, reports)
		}
	}
	if n := lastLength.Load(); n != -1 {
		t.Fatalf("the chunked request reached the gateway with Content-Length %d", n)
	}
}

// TestRawMatchFailover: a raw request the owner refuses fails over to the
// survivor and is counted under path="match", not under its query.
func TestRawMatchFailover(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	g := mustGateway(t, testGatewayConfig([]string{r1.addr, r2.addr}, reg))
	waitAllReady(t, g)
	owner := g.table.Load().ring.candidates("d")[0]
	[]*testReplica{r1, r2}[owner].wound(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/match" {
				serve.WriteErrorBody(w, http.StatusServiceUnavailable, serve.CodeDraining, "wounded", 0)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	reports, _ := wireDo(t, wireRequest(t, gwTS.URL, "d", []byte("xxabc"), true))
	if len(reports) != 1 || reports[0].Offset != 4 {
		t.Fatalf("raw match after failover: reports %v, want one at offset 4", reports)
	}
	if got := reg.Snapshot().Counter(metricFailovers, "path", "match"); got != 1 {
		t.Fatalf(`failovers{path="match"} = %d, want 1`, got)
	}
}

// TestOversizedReplyIsTypedError: a reply longer than the gateway's
// MaxBodyBytes is answered 502 internal — not relayed truncated as a 200,
// not cached, not failed over and not held against the replica.
func TestOversizedReplyIsTypedError(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig([]string{r1.addr, r2.addr}, reg)
	cfg.CacheMaxBytes = 1 << 20
	cfg.MaxBodyBytes = 4 << 10
	g := mustGateway(t, cfg)
	waitAllReady(t, g)

	// Two reports every four symbols: ≈ 1 000 reports, far over 4 KiB of
	// reply for a 2 KiB request.
	dense := strings.Repeat("abcd", 512)
	for i := 0; i < 2; i++ {
		rec := postMatch(t, g.Handler(), "d", dense, "")
		var eb serve.ErrorBody
		if rec.Code != http.StatusBadGateway || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Code != serve.CodeInternal {
			t.Fatalf("dense reply %d: %d %.80s, want 502 %q", i, rec.Code, rec.Body, serve.CodeInternal)
		}
		if got := rec.Header().Get(CacheHeader); got != "miss" {
			t.Fatalf("dense reply %d answered as a cache %q", i, got)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(metricFailovers, "path", "match"); got != 0 {
		t.Fatalf("oversized reply failed over %d times", got)
	}
	for _, rep := range g.table.Load().replicas {
		if state, failures := rep.breaker.Snapshot(); failures != 0 || state != resilience.BreakerClosed {
			t.Fatalf("replica %s breaker %v with %d failures after an oversized reply", rep.id, state, failures)
		}
	}
	if n, _ := snap.Value(metricCacheEntries); n != 0 {
		t.Fatalf("oversized reply left %v cache entries", n)
	}
}

// TestDeclaredLengthIsNotAnAllocation: a request that declares a body of
// MaxBodyBytes but sends a few bytes before its connection fails costs the
// server about what arrived, not the declared length — on serve and on both
// gateway routes, in both body forms.
func TestDeclaredLengthIsNotAnAllocation(t *testing.T) {
	const limit = 64 << 20
	r1 := startReplica(t, "", serve.Config{MaxBodyBytes: limit})
	cfg := testGatewayConfig([]string{r1.addr}, nil)
	cfg.MaxBodyBytes = limit
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	r1.mu.Lock()
	serveHandler := r1.srv.Handler()
	r1.mu.Unlock()

	for _, tc := range []struct {
		name, target string
		h            http.Handler
	}{
		{"serve", "/v1/match?design=d", serveHandler},
		{"gateway", "/v1/match?design=d", g.Handler()},
		{"gateway-stream", "/v1/match/stream?design=d", g.Handler()},
	} {
		for _, contentType := range []string{serve.RawContentType, "application/json"} {
			// What a handler reads from a connection that closes mid-body.
			body := io.MultiReader(strings.NewReader(`{"te`), iotest.ErrReader(io.ErrUnexpectedEOF))
			req := httptest.NewRequest(http.MethodPost, tc.target, body)
			req.Header.Set("Content-Type", contentType)
			req.ContentLength = limit
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s: truncated body got %d %s, want 400", tc.name, contentType, rec.Code, rec.Body)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > limit/8 {
				t.Fatalf("%s %s: a declared %d-byte body allocated %d bytes before it arrived", tc.name, contentType, limit, grew)
			}
		}
	}
}

// TestJSONBodyTrailingBytes: a JSON match body is read as its first JSON
// value, as it always was, so bytes after it do not turn a served request
// into a 400 — straight to serve and through the gateway.
func TestJSONBodyTrailingBytes(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	g := mustGateway(t, testGatewayConfig([]string{r1.addr}, nil))
	waitAllReady(t, g)
	gwTS := httptest.NewServer(g.Handler())
	t.Cleanup(gwTS.Close)

	for _, base := range []string{"http://" + r1.addr, gwTS.URL} {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/match",
			strings.NewReader(`{"design":"d","text":"xxabc"} {"text":"abc"}`))
		req.Header.Set("Content-Type", "application/json")
		reports, _ := wireDo(t, req)
		if len(reports) != 1 || reports[0].Offset != 4 {
			t.Fatalf("%s: reports %v, want one at offset 4", base, reports)
		}
	}
}
