package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// TestMatchSendsRawBody: Match posts the input itself as an
// application/octet-stream body with the design in the query, and decodes
// the reply's reports straight into rapid.Report as (offset, code): the
// wire's per-report site is skipped.
func TestMatchSendsRawBody(t *testing.T) {
	input := []byte{0xff, 'x', 0x00, 'a', 'b', 'c'}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path != "/v1/match" || r.URL.Query().Get("design") != "a b" ||
			r.Header.Get("Content-Type") != serve.RawContentType || !bytes.Equal(body, input) {
			http.Error(w, fmt.Sprintf("unexpected request %s %q %q", r.URL, r.Header.Get("Content-Type"), body), http.StatusBadRequest)
			return
		}
		fmt.Fprint(w, `{"design":"a b","hash":"h","backend":"engine","count":2,`+
			`"reports":[{"offset":5,"code":1,"site":"m(abc)"},{"offset":5,"code":2}]}`)
	}))
	defer srv.Close()
	res, err := New(srv.URL).Match(context.Background(), "a b", input)
	if err != nil {
		t.Fatal(err)
	}
	want := MatchResult{Design: "a b", Hash: "h", Backend: "engine",
		Reports: []rapid.Report{{Offset: 5, Code: 1}, {Offset: 5, Code: 2}}}
	if res.Design != want.Design || res.Hash != want.Hash || res.Backend != want.Backend ||
		fmt.Sprint(res.Reports) != fmt.Sprint(want.Reports) {
		t.Fatalf("Match = %+v, want %+v", *res, want)
	}
}

// TestDesignsReturnsSites: Designs carries each mounted design's code →
// site table, which resolves the codes of a match result's reports to the
// sites the wire reply carries.
func TestDesignsReturnsSites(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `macro m(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String s) { m(s); }`
	if _, err := srv.AddDesign(serve.DesignSpec{Name: "d", Source: src, Args: []rapid.Value{rapid.Str("abc")}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	ctx := context.Background()
	c := New(ts.URL)
	designs, err := c.Designs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.MatchText(ctx, "d", "xxabcx")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(`{"design":"d","text":"xxabcx"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct{ Reports []struct{ Site string } }
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(designs) != 1 || len(res.Reports) != 1 || len(wire.Reports) != 1 {
		t.Fatalf("designs %+v, reports %v, wire %+v", designs, res.Reports, wire)
	}
	site := designs[0].Sites[res.Reports[0].Code]
	if site == "" || site != wire.Reports[0].Site {
		t.Fatalf("sites %v resolve code %d to %q, the wire says %q",
			designs[0].Sites, res.Reports[0].Code, site, wire.Reports[0].Site)
	}
}

// TestMatchRetriesWithRetryAfterFloor: a 429 with Retry-After is retried,
// and the recorded sleep is floored at the server's hint rather than the
// policy's (smaller) backoff.
func TestMatchRetriesWithRetryAfterFloor(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "over capacity"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"design": "d", "hash": "h", "backend": "engine",
			"reports": []map[string]any{{"offset": 5, "code": 1}},
		})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := New(srv.URL, WithRetryPolicy(resilience.Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Sleep:       func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}))
	res, err := c.MatchText(context.Background(), "d", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(res.Reports) != 1 || res.Reports[0].Offset != 5 {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if len(slept) != 2 {
		t.Fatalf("%d sleeps recorded, want 2", len(slept))
	}
	for i, d := range slept {
		if d < 3*time.Second {
			t.Fatalf("sleep %d = %v, want >= 3s (the Retry-After floor)", i, d)
		}
	}
}

// TestMatchPermanentOn400: client errors are not retried.
func TestMatchPermanentOn400(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad input"})
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetryPolicy(resilience.Policy{
		MaxAttempts: 5,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}))
	_, err := c.MatchText(context.Background(), "d", "x")
	if err == nil {
		t.Fatal("want error")
	}
	var se *StatusError
	if !asStatus(err, &se) || se.Status != http.StatusBadRequest || se.Message != "bad input" {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 retried %d times; client errors are permanent", calls.Load())
	}
}

// TestMatchRetriesExhaust: persistent 503s exhaust the policy and surface
// the final StatusError.
func TestMatchRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetryPolicy(resilience.Policy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}))
	_, err := c.MatchText(context.Background(), "d", "x")
	var se *StatusError
	if !asStatus(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want MaxAttempts=3", calls.Load())
	}
}

// TestMatchStreamParsing: NDJSON result lines parse into per-record
// results, with per-record errors surfaced in RecordResult.Err. The last
// line, 10 000 reports long, is far over 64 KiB.
func TestMatchStreamParsing(t *testing.T) {
	long := strings.Repeat(`{"offset":7,"code":1},`, 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/match/stream" || r.URL.Query().Get("design") != "d" {
			t.Errorf("unexpected request %s", r.URL)
		}
		fmt.Fprintln(w, `{"index":0,"offset":1,"count":1,"reports":[{"offset":3,"code":0}]}`)
		fmt.Fprintln(w, `{"index":1,"offset":5,"error":"serve: over capacity, queue full"}`)
		fmt.Fprintln(w, `{"index":2,"offset":9,"count":0,"reports":[]}`)
		fmt.Fprintf(w, `{"index":3,"offset":12,"count":10000,"reports":[%s]}`+"\n", long[:len(long)-1])
	}))
	defer srv.Close()
	c := New(srv.URL)
	results, err := c.MatchRecords(context.Background(), "d", []byte("ab"), []byte("cd"), []byte("ef"), []byte("gh"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	if got := results[3]; got.Err != nil || len(got.Reports) != 10000 || got.Reports[9999] != (rapid.Report{Offset: 7, Code: 1}) {
		t.Fatalf("result 3 has %d reports, err %v", len(got.Reports), got.Err)
	}
	if results[0].Err != nil || len(results[0].Reports) != 1 || results[0].Reports[0] != (rapid.Report{Offset: 3}) {
		t.Fatalf("result 0 = %+v", results[0])
	}
	if results[1].Err == nil || results[1].Offset != 5 {
		t.Fatalf("result 1 = %+v, want per-record error", results[1])
	}
	if results[2].Err != nil || len(results[2].Reports) != 0 {
		t.Fatalf("result 2 = %+v", results[2])
	}
}

// TestStatusErrorParsing: Retry-After and the JSON error body round-trip
// into StatusError.
func TestStatusErrorParsing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
	}))
	defer srv.Close()
	c := New(srv.URL)
	err := c.Ready(context.Background())
	var se *StatusError
	if !asStatus(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if se.Status != 429 || se.Message != "queue full" || se.RetryAfter != 7*time.Second {
		t.Fatalf("StatusError = %+v", se)
	}
	if !se.IsRetryable() {
		t.Fatal("429 should be retryable")
	}
}

func asStatus(err error, se **StatusError) bool { return errors.As(err, se) }
