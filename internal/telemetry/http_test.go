package telemetry

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMetricsServerLifecycle: the listener binds an ephemeral port, serves
// the exposition, and Shutdown actually releases it — the fix for the
// never-shut-down metrics goroutine the CLIs used to leak.
func TestMetricsServerLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rapid_test_http_total", "test counter").Add(7)
	ms, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := ms.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rapid_test_http_total 7") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ms.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func TestMetricsServerBadAddr(t *testing.T) {
	if _, err := ListenAndServe("127.0.0.1:-1", NewRegistry()); err == nil {
		t.Fatal("want listen error")
	}
}

// TestStalledHeaderDisconnected: a client that sends part of a request
// line and then waits is disconnected once readHeaderTimeout has passed,
// instead of holding its connection for as long as it likes.
func TestStalledHeaderDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	ms, err := ListenAndServe("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Shutdown(context.Background())
	conn, err := net.Dial("tcp", ms.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/match HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the server still holds a connection whose headers stalled 5 s ago")
	}
}
