package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rapid "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// TestChaosKillReplicaUnderLoad is the in-process half of the chaos
// harness (the multi-process SIGKILL variant lives in cmd/rapidgw): three
// replicas behind a gateway, 64 concurrent clients streaming and
// matching, the design's owner replica killed abruptly mid-load and later
// restarted on the same address.
//
// The bar:
//   - zero lost admitted requests: every stream response carries exactly
//     one line per record, in order, each a success or a TYPED error —
//     never a silently shortened stream; every match gets a real HTTP
//     response, 200 or a typed retryable refusal;
//   - the killed replica's breaker recovers after the restart and the
//     replica serves again;
//   - the gateway then drains cleanly.
//
// Run under -race this doubles as the gateway's synchronization proof.
func TestChaosKillReplicaUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	reps := []*testReplica{
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
	}
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig([]string{reps[0].addr, reps[1].addr, reps[2].addr}, reg)
	g := mustGateway(t, cfg)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	waitAllReady(t, g)
	base := "http://" + g.Addr()

	recs := [][]byte{
		[]byte("xxabcxx"), []byte("yyy"), []byte("zzabc"), []byte("bcdbcd"),
		[]byte("qqqq"), []byte("ababc"), []byte("noise"), []byte("abcbcd"),
	}
	stream := rapid.FrameRecords(recs...)
	records, offsets := rapid.SplitRecords(stream)
	wantReports := countBaselineReports(t, base, stream, records, offsets)

	const clients = 64
	var (
		stop          atomic.Bool
		streamsOK     atomic.Int64 // streams with every record succeeding
		streamsTyped  atomic.Int64 // streams with some typed retryable refusals
		matchesOK     atomic.Int64
		matchesRefuse atomic.Int64
		failures      = make(chan string, clients)
	)
	httpc := &http.Client{Timeout: 30 * time.Second}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				if c%2 == 0 {
					if msg := runChaosStream(httpc, base, stream, records, offsets, wantReports,
						&streamsOK, &streamsTyped); msg != "" {
						select {
						case failures <- msg:
						default:
						}
						return
					}
				} else {
					if msg := runChaosMatch(httpc, base, &matchesOK, &matchesRefuse); msg != "" {
						select {
						case failures <- msg:
						default:
						}
						return
					}
				}
			}
		}(c)
	}

	// Let load build, then SIGKILL-equivalent the owner of "d" mid-stream.
	time.Sleep(150 * time.Millisecond)
	owner := g.table.Load().ring.candidates("d")[0]
	victim := reps[owner]
	victim.kill()
	time.Sleep(300 * time.Millisecond)

	// Restart on the same address; the prober must walk the breaker back
	// to closed while load continues.
	victim.start()
	waitFor(t, "killed replica to rejoin (ready + breaker closed)", func() bool {
		rep := g.table.Load().replicas[owner]
		return rep.ready.Load() && rep.breaker.State() == resilience.BreakerClosed
	})
	time.Sleep(150 * time.Millisecond)

	stop.Store(true)
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}

	t.Logf("chaos: streams ok=%d typed-refusals=%d; matches ok=%d refused=%d; failovers stream=%d match=%d",
		streamsOK.Load(), streamsTyped.Load(), matchesOK.Load(), matchesRefuse.Load(),
		reg.Snapshot().Counter(metricFailovers, "path", "stream"),
		reg.Snapshot().Counter(metricFailovers, "path", "match"))
	if streamsOK.Load() == 0 || matchesOK.Load() == 0 {
		t.Fatal("no successful traffic during the chaos run")
	}

	// The recovered replica serves live traffic again.
	waitFor(t, "recovered replica to serve", func() bool {
		rec := postMatch(t, g.Handler(), "d", "xxabc", "")
		return rec.Code == http.StatusOK
	})

	// Clean drain.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("gateway drain: %v", err)
	}
}

// TestChaosReplicatedDesignKillUnderLoad is the replicated-design chaos
// bar: design "d" runs with replication factor 2 on a three-replica
// fleet, load spreads across both candidates by power-of-two-choices,
// and one of the two is killed mid-load and NEVER restarted. Because the
// design is already hot on the surviving candidate, traffic must keep
// succeeding immediately — no breaker-recovery wait, no restart — with
// zero lost admitted requests. The gateway's idempotent-response cache is
// on, so repeated identical matches must also show cache hits.
func TestChaosReplicatedDesignKillUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	reps := []*testReplica{
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
	}
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig(nil, reg)
	cfg.Fleet = FleetManifest{
		Replicas: []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Designs:  map[string]int{"d": 2},
	}
	cfg.CacheMaxBytes = 1 << 20
	g := mustGateway(t, cfg)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	waitAllReady(t, g)
	base := "http://" + g.Addr()

	recs := [][]byte{
		[]byte("xxabcxx"), []byte("yyy"), []byte("zzabc"), []byte("bcdbcd"),
		[]byte("qqqq"), []byte("ababc"), []byte("noise"), []byte("abcbcd"),
	}
	stream := rapid.FrameRecords(recs...)
	records, offsets := rapid.SplitRecords(stream)
	wantReports := countBaselineReports(t, base, stream, records, offsets)

	cands := g.table.Load().ring.candidates("d")
	pair := []int{cands[0], cands[1]} // the replicated set

	const clients = 48
	var (
		stop         atomic.Bool
		streamsOK    atomic.Int64
		streamsTyped atomic.Int64
		matchesOK    atomic.Int64
		failures     = make(chan string, clients)
	)
	httpc := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Matches rotate through a few distinct inputs, so the cache
			// sees both misses and repeat hits.
			text := fmt.Sprintf("xx-abc-%d", c%4)
			for !stop.Load() {
				var msg string
				if c%2 == 0 {
					msg = runChaosStream(httpc, base, stream, records, offsets, wantReports,
						&streamsOK, &streamsTyped)
				} else {
					msg = runChaosTextMatch(httpc, base, text, &matchesOK)
				}
				if msg != "" {
					select {
					case failures <- msg:
					default:
					}
					return
				}
			}
		}(c)
	}

	// Let the spread establish, then kill the design's ring owner — one of
	// its two live candidates — and keep it dead.
	time.Sleep(200 * time.Millisecond)
	snap := reg.Snapshot()
	for _, c := range pair {
		id := g.table.Load().replicas[c].id
		if picks := snap.Counter(metricSpreadPicks, "replica", id); picks == 0 {
			t.Errorf("candidate %s got no spread picks before the kill; load not spread", id)
		}
	}
	reps[pair[0]].kill()

	// Traffic continues against the surviving candidate with no recovery
	// wait: the victim stays dead until the end of the test.
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}
	if streamsOK.Load() == 0 || matchesOK.Load() == 0 {
		t.Fatal("no successful traffic during the chaos run")
	}

	snap = reg.Snapshot()
	survivorID := g.table.Load().replicas[pair[1]].id
	if served := snap.Counter(metricRequests, "replica", survivorID, "outcome", "ok"); served == 0 {
		t.Fatalf("surviving candidate %s served nothing", survivorID)
	}
	if hits := snap.Counter(metricCacheHits); hits == 0 {
		t.Fatal("no cache hits despite repeated identical matches")
	}
	t.Logf("replicated chaos: streams ok=%d typed=%d matches ok=%d cache hits=%d failovers match=%d stream=%d",
		streamsOK.Load(), streamsTyped.Load(), matchesOK.Load(), snap.Counter(metricCacheHits),
		snap.Counter(metricFailovers, "path", "match"), snap.Counter(metricFailovers, "path", "stream"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("gateway drain: %v", err)
	}
}

// runChaosTextMatch issues one match for text; any response must be 200
// (count may be zero — the text may not contain a pattern) or a typed
// retryable refusal.
func runChaosTextMatch(httpc *http.Client, base, text string, ok *atomic.Int64) string {
	body, _ := json.Marshal(map[string]string{"design": "d", "text": text})
	resp, err := httpc.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Sprintf("match transport error through gateway: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Count == 0 {
			return fmt.Sprintf("match 200 with bad body %q (err %v)", data, err)
		}
		ok.Add(1)
		return ""
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code == "" || !serve.RetryableCode(eb.Code) {
		return fmt.Sprintf("match refused without a typed retryable code: status=%d body=%q",
			resp.StatusCode, data)
	}
	return ""
}

// countBaselineReports runs the stream once against a healthy fleet and
// returns the per-record report counts — the ground truth each chaos
// stream is checked against.
func countBaselineReports(t *testing.T, base string, stream []byte, records [][]byte, offsets []int) []int {
	t.Helper()
	resp, err := http.Post(base+"/v1/match/stream?design=d", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline stream: %d", resp.StatusCode)
	}
	lines := decodeStream(t, resp.Body)
	_, failed := checkStreamComplete(t, lines, records, offsets)
	if failed != 0 {
		t.Fatalf("baseline stream had %d failed records", failed)
	}
	counts := make([]int, len(lines))
	for i, line := range lines {
		counts[i] = len(line.Reports)
	}
	return counts
}

// runChaosStream issues one stream request and verifies the zero-loss
// contract; it returns a failure description, or "" when the stream held.
func runChaosStream(httpc *http.Client, base string, stream []byte, records [][]byte, offsets []int,
	wantReports []int, ok, typed *atomic.Int64) string {
	resp, err := httpc.Post(base+"/v1/match/stream?design=d", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		// The gateway itself stays up throughout; its connection must too.
		return fmt.Sprintf("stream transport error through gateway: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("stream status %d through gateway", resp.StatusCode)
	}
	var lines []serve.StreamResult
	dec := json.NewDecoder(resp.Body)
	for {
		var line serve.StreamResult
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Sprintf("torn stream line from gateway: %v", err)
		}
		lines = append(lines, line)
	}
	if len(lines) != len(records) {
		return fmt.Sprintf("stream lost records: %d lines for %d records", len(lines), len(records))
	}
	refused := 0
	for i, line := range lines {
		if line.Index != i || line.Offset != offsets[i] {
			return fmt.Sprintf("record %d misnumbered: index=%d offset=%d want offset %d",
				i, line.Index, line.Offset, offsets[i])
		}
		if line.Error != "" {
			if line.Code == "" || !serve.RetryableCode(line.Code) {
				return fmt.Sprintf("record %d failed without a typed retryable code: %q %s",
					i, line.Code, line.Error)
			}
			refused++
			continue
		}
		if len(line.Reports) != wantReports[i] {
			return fmt.Sprintf("record %d returned %d reports, want %d — results corrupted by failover",
				i, len(line.Reports), wantReports[i])
		}
	}
	if refused == 0 {
		ok.Add(1)
	} else {
		typed.Add(1)
	}
	return ""
}

// runChaosMatch issues one match; any response must be 200 or a typed,
// retryable refusal.
func runChaosMatch(httpc *http.Client, base string, ok, refused *atomic.Int64) string {
	body, _ := json.Marshal(map[string]string{"design": "d", "text": "xxabc"})
	resp, err := httpc.Post(base+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Sprintf("match transport error through gateway: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Count == 0 {
			return fmt.Sprintf("match 200 with bad body %q (err %v)", data, err)
		}
		ok.Add(1)
		return ""
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code == "" || !serve.RetryableCode(eb.Code) {
		return fmt.Sprintf("match refused without a typed retryable code: status=%d body=%q",
			resp.StatusCode, data)
	}
	refused.Add(1)
	return ""
}
