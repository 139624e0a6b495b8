package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func testCacheResponse(body string) *bufferedResponse {
	return &bufferedResponse{status: http.StatusOK, body: []byte(body)}
}

// TestResponseCacheLRU: the unit-level contract — keyed on design hash +
// input hash, LRU-evicted under the byte bound, purged when a design's
// hash changes (hot reload), and nil-safe when disabled.
func TestResponseCacheLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := newGatewayMetrics(reg)
	// Each entry is body(100) + hashes + 256 overhead ≈ 370 bytes; budget
	// fits two entries, not three.
	c := newResponseCache(800, tel)
	body := strings.Repeat("x", 100)

	if got := c.lookup("d", "in1"); got != nil {
		t.Fatal("lookup before any store must miss")
	}
	c.store("d", "hash1", "in1", testCacheResponse(body))
	c.store("d", "hash1", "in2", testCacheResponse(body))
	if c.lookup("d", "in1") == nil || c.lookup("d", "in2") == nil {
		t.Fatal("stored entries must hit")
	}

	// in1 was touched most recently just above, so a third entry evicts
	// in2... but lookup order above left in2 most recent. Touch in1 to pin
	// it, then overflow.
	c.lookup("d", "in1")
	c.store("d", "hash1", "in3", testCacheResponse(body))
	if c.lookup("d", "in2") != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.lookup("d", "in1") == nil || c.lookup("d", "in3") == nil {
		t.Fatal("recently-used entries were evicted")
	}
	if got := reg.Snapshot().Counter(metricCacheEvictions); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// A hash change (hot reload) purges the design's stale entries.
	c.store("d", "hash2", "in1", testCacheResponse(body))
	if c.lookup("d", "in3") != nil {
		t.Fatal("stale entry served after the design's hash changed")
	}
	if c.lookup("d", "in1") == nil {
		t.Fatal("fresh entry must hit after the reload purge")
	}
	if got := reg.Snapshot().Counter(metricCacheInvalidations); got == 0 {
		t.Fatal("no invalidations recorded for the reload purge")
	}

	// Oversized responses are never cached; empty hashes are ignored.
	c.store("d", "hash2", "huge", testCacheResponse(strings.Repeat("y", 10000)))
	if c.lookup("d", "huge") != nil {
		t.Fatal("oversized entry was cached")
	}
	c.store("d", "", "nohash", testCacheResponse(body))
	if c.lookup("d", "nohash") != nil {
		t.Fatal("entry stored without a design hash")
	}

	// Disabled cache (zero budget) is nil and nil-safe.
	var off *responseCache = newResponseCache(0, tel)
	if off != nil {
		t.Fatal("zero budget must disable the cache")
	}
	if off.lookup("d", "in1") != nil {
		t.Fatal("nil cache must miss")
	}
	off.store("d", "h", "in1", testCacheResponse(body))
}

// TestGatewayMatchCache: end to end through the gateway — the first of
// two identical idempotent matches is forwarded, the second is answered
// from the cache (X-Rapid-Cache: hit, no replica round-trip), and a
// different input misses.
func TestGatewayMatchCache(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig([]string{r1.addr}, reg)
	cfg.CacheMaxBytes = 1 << 20
	g := mustGateway(t, cfg)
	waitAllReady(t, g)

	first := postMatch(t, g.Handler(), "d", "xxabc", "")
	if first.Code != http.StatusOK {
		t.Fatalf("first match: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("first match %s = %q, want miss", CacheHeader, got)
	}
	if first.Header().Get(serve.DesignHashHeader) == "" {
		t.Fatal("relayed match lost the design-hash header")
	}

	second := postMatch(t, g.Handler(), "d", "xxabc", "")
	if second.Code != http.StatusOK {
		t.Fatalf("second match: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("second match %s = %q, want hit", CacheHeader, got)
	}
	if second.Body.String() != first.Body.String() {
		t.Fatalf("cached body diverged:\n%s\nvs\n%s", second.Body, first.Body)
	}

	// Only the first request reached the replica.
	repID := g.table.Load().replicas[0].id
	snap := reg.Snapshot()
	if got := snap.Counter(metricRequests, "replica", repID, "outcome", "ok"); got != 1 {
		t.Fatalf("replica served %d matches, want 1 (second should be a cache hit)", got)
	}
	if hits := snap.Counter(metricCacheHits); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := snap.Counter(metricCacheMisses); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	// A different input is a fresh miss.
	third := postMatch(t, g.Handler(), "d", "bcdbcd", "")
	if third.Code != http.StatusOK || third.Header().Get(CacheHeader) != "miss" {
		t.Fatalf("different input: %d %s=%q, want 200 miss", third.Code, CacheHeader, third.Header().Get(CacheHeader))
	}

	// Error responses are never cached: an unknown design 404 twice is two
	// forwarded requests.
	for i := 0; i < 2; i++ {
		if rec := postMatch(t, g.Handler(), "nope", "x", ""); rec.Code != http.StatusNotFound {
			t.Fatalf("unknown design: %d, want 404", rec.Code)
		}
	}
	if got := reg.Snapshot().Counter(metricRequests, "replica", repID, "outcome", "relayed_error"); got != 2 {
		t.Fatalf("relayed errors = %d, want 2 (refusals must not be cached)", got)
	}
}

// TestResponseCacheSurvivesMissBurst: entries that were hit stay cached
// through one-off misses totalling four times the byte bound, the byte
// bound holds after every store, and the protected segment stays within
// its share.
func TestResponseCacheSurvivesMissBurst(t *testing.T) {
	const max = 64 << 10
	reg := telemetry.NewRegistry()
	c := newResponseCache(max, newGatewayMetrics(reg))
	resp := testCacheResponse(strings.Repeat("x", 1000))
	hot := make([]string, 24) // ≈ 31 KiB, within the protected ¾
	for i := range hot {
		hot[i] = inputHash(true, []byte(fmt.Sprint("hot", i)))
		c.store("d", "hash1", hot[i], resp)
	}
	for _, in := range hot {
		if c.lookup("d", in) == nil {
			t.Fatal("a stored entry missed")
		}
	}
	var stored int64
	for i := 0; stored < 4*max; i++ {
		in := inputHash(true, []byte(fmt.Sprint("miss", i)))
		c.store("d", "hash1", in, resp)
		stored += int64(len(resp.body)+len("hash1")+len(in)) + 256
		if n, _ := reg.Snapshot().Value(metricCacheBytes); n > max || c.probation.bytes+c.protected.bytes > max {
			t.Fatalf("after %d misses the cache holds %v B, over its %d B bound", i+1, n, max)
		}
	}
	for i, in := range hot {
		if c.lookup("d", in) == nil {
			t.Fatalf("hot entry %d was evicted by one-off misses", i)
		}
	}
	if c.protected.bytes > max*3/4 {
		t.Fatalf("protected segment holds %d B, over ¾ of %d", c.protected.bytes, max)
	}
	if got := reg.Snapshot().Counter(metricCacheEvictions); got == 0 {
		t.Fatal("no evictions recorded for a burst four times the bound")
	}
}

// TestGatewayCacheConcurrentHits: raw matches from several goroutines at
// once, hits on shared cached replies beside misses that store and evict
// several times the byte bound, each answer the body and cache outcome its
// input calls for: the entries being hit are never evicted. Run it under
// -race: the cached replies' header values and the pooled body scratch are
// shared across requests.
func TestGatewayCacheConcurrentHits(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	cfg := testGatewayConfig([]string{r1.addr}, nil)
	cfg.CacheMaxBytes = 16 << 10
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	raw := func(input string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/match?design=d", strings.NewReader(input))
		req.Header.Set("Content-Type", serve.RawContentType)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		return rec
	}
	hot := []string{"xxabcx", "abcabc", "zzzabc", "ab"}
	want := map[string]string{}
	for _, in := range hot {
		want[in] = raw(in).Body.String()
		if rec := raw(in); rec.Header().Get(CacheHeader) != "hit" || rec.Body.String() != want[in] {
			t.Fatalf("%q: second match %s=%q, body %q", in, CacheHeader, rec.Header().Get(CacheHeader), rec.Body)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := hot[(w+i)%len(hot)]
				if rec := raw(in); rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != "hit" || rec.Body.String() != want[in] {
					t.Errorf("%q: %d %s=%q %q, want a hit with %q", in, rec.Code, CacheHeader, rec.Header().Get(CacheHeader), rec.Body, want[in])
					return
				}
				if rec := raw(fmt.Sprintf("miss-%d-%d-abc", w, i)); rec.Code != http.StatusOK || rec.Header().Get(CacheHeader) != "miss" {
					t.Errorf("one-off input: %d %s=%q", rec.Code, CacheHeader, rec.Header().Get(CacheHeader))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
