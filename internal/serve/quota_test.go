package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTokenBucket exercises the limiter directly with a fake clock.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	q := newTenantQuotas(10, 2, func() time.Time { return now })

	// The burst is available immediately.
	for i := 0; i < 2; i++ {
		if _, ok := q.take("a"); !ok {
			t.Fatalf("take %d refused within burst", i)
		}
	}
	wait, ok := q.take("a")
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v (1 token at 10/s)", wait, want)
	}
	// Tenants are independent.
	if _, ok := q.take("b"); !ok {
		t.Fatal("tenant b starved by tenant a")
	}
	// Refill at the configured rate.
	now = now.Add(100 * time.Millisecond)
	if _, ok := q.take("a"); !ok {
		t.Fatal("token not refilled after 100ms at 10/s")
	}
	// Tokens cap at the burst: a long idle stretch does not bank more.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if _, ok := q.take("a"); !ok {
			t.Fatalf("take %d refused after refill", i)
		}
	}
	if _, ok := q.take("a"); ok {
		t.Fatal("idle time banked more than the burst")
	}

	// rate <= 0 disables (nil limiter admits everything).
	var disabled *tenantQuotas
	if _, ok := disabled.take("x"); !ok {
		t.Fatal("nil limiter refused")
	}
}

// TestQuotaHTTP drives the quota gate over HTTP: the burst is admitted,
// the next request is refused with 429 + code quota_exhausted + a
// Retry-After hint, another tenant is unaffected, and the tenant-labeled
// metrics account for all of it.
func TestQuotaHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{TenantRate: 0.001, TenantBurst: 2, RetryAfter: time.Second, Telemetry: reg})
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

	post := func(tenant string) (*http.Response, ErrorBody) {
		t.Helper()
		body, _ := json.Marshal(matchRequest{Design: "d", Text: "xxabc"})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("non-2xx response without structured error body: %v", err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp, eb
	}

	for i := 0; i < 2; i++ {
		if resp, _ := post("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp, eb := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if eb.Code != CodeQuotaExhausted {
		t.Fatalf("over-quota code %q, want %q", eb.Code, CodeQuotaExhausted)
	}
	if resp.Header.Get("Retry-After") == "" || eb.RetryAfterMS <= 0 {
		t.Fatalf("over-quota response lacks retry hints: header=%q body_ms=%d",
			resp.Header.Get("Retry-After"), eb.RetryAfterMS)
	}
	// The anonymous tenant ("default") has its own bucket.
	if resp, _ := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant caught by alice's quota: status %d", resp.StatusCode)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(metricQuotaRejections, "tenant", "alice"); got != 1 {
		t.Fatalf("quota rejections{alice} = %d, want 1", got)
	}
	if got := snap.Counter(metricTenantRequests, "tenant", "alice"); got != 2 {
		t.Fatalf("tenant requests{alice} = %d, want 2", got)
	}
	if got := snap.Counter(metricTenantRequests, "tenant", DefaultTenant); got != 1 {
		t.Fatalf("tenant requests{default} = %d, want 1", got)
	}
}

// TestQuotaStreamPerRecord: streaming records pass the same gate, with
// refusals surfacing as typed per-record error lines, not stream failure.
func TestQuotaStreamPerRecord(t *testing.T) {
	s := mustNew(t, Config{TenantRate: 0.001, TenantBurst: 2, RetryAfter: time.Second})
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

	stream := []byte("\xffxxabc\xffxxabc\xffxxabc\xff") // 3 records, burst 2
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match/stream?design=d", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var lines []StreamResult
	dec := json.NewDecoder(resp.Body)
	for {
		var line StreamResult
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d result lines, want 3", len(lines))
	}
	for i := 0; i < 2; i++ {
		if lines[i].Error != "" {
			t.Fatalf("record %d within burst failed: %s", i, lines[i].Error)
		}
	}
	last := lines[2]
	if last.Code != CodeQuotaExhausted || last.Error == "" || last.RetryAfterMS <= 0 {
		t.Fatalf("over-quota record line = %+v, want code %q with error and retry_after_ms", last, CodeQuotaExhausted)
	}
}
