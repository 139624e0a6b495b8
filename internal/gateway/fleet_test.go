package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func TestNormalizeReplicaURL(t *testing.T) {
	cases := []struct {
		raw, id, base string
		bad           bool
	}{
		{raw: "10.0.0.1:8765", id: "10.0.0.1:8765", base: "http://10.0.0.1:8765"},
		{raw: "http://10.0.0.1:8765/", id: "10.0.0.1:8765", base: "http://10.0.0.1:8765"},
		{raw: "https://replica.internal:9000", id: "replica.internal:9000", base: "https://replica.internal:9000"},
		{raw: "://", bad: true},
		{raw: "", bad: true},
	}
	for _, tc := range cases {
		id, base, err := normalizeReplicaURL(tc.raw)
		if tc.bad {
			if err == nil {
				t.Errorf("normalizeReplicaURL(%q) accepted, want error", tc.raw)
			}
			continue
		}
		if err != nil || id != tc.id || base != tc.base {
			t.Errorf("normalizeReplicaURL(%q) = (%q, %q, %v), want (%q, %q)", tc.raw, id, base, err, tc.id, tc.base)
		}
	}
}

func TestFleetManifestValidate(t *testing.T) {
	if err := (FleetManifest{}).validate(); err == nil {
		t.Error("empty manifest accepted")
	}
	if err := (FleetManifest{Replicas: []string{"a:1"}, Designs: map[string]int{"d": 0}}).validate(); err == nil {
		t.Error("zero replication factor accepted")
	}
	if err := (FleetManifest{Replicas: []string{"a:1"}, Designs: map[string]int{"": 1}}).validate(); err == nil {
		t.Error("empty design name accepted")
	}
	if err := (FleetManifest{Replicas: []string{"a:1"}, Designs: map[string]int{"d": 2}}).validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

// TestLoadFleetManifest: a well-formed file loads as written; a misspelled
// key, trailing data, malformed JSON and a manifest validate refuses are
// errors that name the file.
func TestLoadFleetManifest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok := write("ok.json", `{"replicas": ["10.0.0.1:8765", "10.0.0.2:8765"], "default_replication": 2, "designs": {"hot": 2}}`)
	m, err := LoadFleetManifest(ok)
	if err != nil {
		t.Fatal(err)
	}
	want := FleetManifest{Replicas: []string{"10.0.0.1:8765", "10.0.0.2:8765"}, DefaultReplication: 2, Designs: map[string]int{"hot": 2}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("loaded %+v, want %+v", m, want)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"misspelled", `{"replicas": ["a:1", "b:1"], "default_replicaton": 2}`, `unknown field "default_replicaton"`},
		{"trailing", `{"replicas": ["a:1"]} {"replicas": ["b:1"]}`, "data after the manifest object"},
		{"malformed", `{"replicas": ["a:1"],}`, "invalid character"},
		{"invalid", `{"replicas": []}`, "no replicas"},
	} {
		path := write(tc.name+".json", tc.body)
		_, err := LoadFleetManifest(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s and %q", tc.name, err, path, tc.want)
		}
	}
	if _, err := LoadFleetManifest(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("absent file: err = %v, want os.ErrNotExist", err)
	}
}

// TestFleetDigestAgreement: the routing digest is a pure function of the
// routing inputs — membership (order-independent), vnodes, and the
// replication factors — so two gateways over one manifest agree, and any
// routing-relevant change is visible as a digest change.
func TestFleetDigestAgreement(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})

	mk := func(m FleetManifest, vnodes int) string {
		cfg := testGatewayConfig(nil, nil)
		cfg.Fleet = m
		cfg.Vnodes = vnodes
		g := mustGateway(t, cfg)
		return g.Digest()
	}

	base := mk(FleetManifest{Replicas: []string{r1.addr, r2.addr}, Designs: map[string]int{"d": 2}}, 64)
	reordered := mk(FleetManifest{Replicas: []string{r2.addr, r1.addr}, Designs: map[string]int{"d": 2}}, 64)
	if base != reordered {
		t.Fatalf("digest depends on replica listing order: %s vs %s", base, reordered)
	}
	if got := mk(FleetManifest{Replicas: []string{r1.addr}}, 64); got == base {
		t.Fatal("digest unchanged after membership change")
	}
	if got := mk(FleetManifest{Replicas: []string{r1.addr, r2.addr}, Designs: map[string]int{"d": 1}}, 64); got == base {
		t.Fatal("digest unchanged after replication-factor change")
	}
	if got := mk(FleetManifest{Replicas: []string{r1.addr, r2.addr}, Designs: map[string]int{"d": 2}}, 32); got == base {
		t.Fatal("digest unchanged after vnode change")
	}
}

// TestApplyFleetLiveRebalance grows and then shrinks the fleet under
// continuous match load: every request must get a 200 or a typed
// retryable refusal across both table swaps, the summaries must account
// for the membership and design movement, and the removed replica's
// prober must stop.
func TestApplyFleetLiveRebalance(t *testing.T) {
	reps := []*testReplica{
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
		startReplica(t, "", serve.Config{}),
	}
	// Track plenty of synthetic design names so movement accounting has a
	// population to measure; only "d" is actually mounted.
	designs := map[string]int{"d": 1}
	for i := 0; i < 40; i++ {
		designs[fmt.Sprintf("synthetic-%d", i)] = 1
	}
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig(nil, reg)
	cfg.Fleet = FleetManifest{Replicas: []string{reps[0].addr, reps[1].addr}, Designs: designs}
	g := mustGateway(t, cfg)
	waitAllReady(t, g)
	initialDigest := g.Digest()

	var stop atomic.Bool
	var okCount atomic.Int64
	failures := make(chan string, 8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := postMatch(t, g.Handler(), "d", "xxabc", "")
				if rec.Code == http.StatusOK {
					okCount.Add(1)
					continue
				}
				select {
				case failures <- fmt.Sprintf("match during rebalance: %d %s", rec.Code, rec.Body):
				default:
				}
				return
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)

	// Grow: the third replica joins the ring.
	grow, err := g.ApplyFleet(FleetManifest{
		Replicas: []string{reps[0].addr, reps[1].addr, reps[2].addr},
		Designs:  designs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grow.AddedReplicas) != 1 || len(grow.RemovedReplicas) != 0 {
		t.Fatalf("grow summary %+v, want one added, none removed", grow)
	}
	if grow.TrackedDesigns != len(designs) {
		t.Fatalf("grow tracked %d designs, want %d", grow.TrackedDesigns, len(designs))
	}
	// Consistent hashing bounds movement: roughly 1/3 of designs, never
	// more than twice that.
	if moved := len(grow.MovedDesigns); moved == 0 || moved > 2*len(designs)/3 {
		t.Fatalf("grow moved %d/%d designs, want within (0, %d]", moved, len(designs), 2*len(designs)/3)
	}
	if grow.Digest == initialDigest || grow.Digest != g.Digest() {
		t.Fatalf("grow digest %s (gateway %s, initial %s): digest must change and match", grow.Digest, g.Digest(), initialDigest)
	}
	waitAllReady(t, g)
	time.Sleep(50 * time.Millisecond)

	// Shrink: the first replica rolls out.
	removedID := g.table.Load().replicas[0].id
	shrink, err := g.ApplyFleet(FleetManifest{
		Replicas: []string{reps[1].addr, reps[2].addr},
		Designs:  designs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shrink.AddedReplicas) != 0 || len(shrink.RemovedReplicas) != 1 || shrink.RemovedReplicas[0] != removedID {
		t.Fatalf("shrink summary %+v, want exactly %s removed", shrink, removedID)
	}
	time.Sleep(50 * time.Millisecond)

	stop.Store(true)
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}
	if okCount.Load() == 0 {
		t.Fatal("no successful traffic across the rebalances")
	}

	snap := reg.Snapshot()
	if got := snap.Counter(metricRebalances, "outcome", "ok"); got != 2 {
		t.Fatalf("rebalances ok = %d, want 2", got)
	}
	if got, _ := snap.Value(metricFleetSize); got != 2 {
		t.Fatalf("fleet size gauge = %v, want 2", got)
	}

	// The removed replica's prober must stop: its probe counter goes quiet.
	time.Sleep(100 * time.Millisecond)
	before := reg.Snapshot().Counter(metricProbes, "replica", removedID, "outcome", "ok")
	time.Sleep(10 * cfg.ProbeInterval)
	after := reg.Snapshot().Counter(metricProbes, "replica", removedID, "outcome", "ok")
	if after != before {
		t.Fatalf("removed replica still being probed: %d -> %d", before, after)
	}

	// A bad manifest is rejected without touching the live table.
	digest := g.Digest()
	if _, err := g.ApplyFleet(FleetManifest{}); err == nil {
		t.Fatal("empty manifest accepted by ApplyFleet")
	}
	if g.Digest() != digest {
		t.Fatal("failed rebalance changed the routing table")
	}
	if got := reg.Snapshot().Counter(metricRebalances, "outcome", "error"); got != 1 {
		t.Fatalf("rebalances error = %d, want 1", got)
	}
}

// TestReplicatedDesignSpreadsLoad: a design with replication 2 must send
// live traffic to both of its candidates (power-of-two-choices), not just
// the ring owner.
func TestReplicatedDesignSpreadsLoad(t *testing.T) {
	r1 := startReplica(t, "", serve.Config{})
	r2 := startReplica(t, "", serve.Config{})
	reg := telemetry.NewRegistry()
	cfg := testGatewayConfig(nil, reg)
	cfg.Fleet = FleetManifest{
		Replicas: []string{r1.addr, r2.addr},
		Designs:  map[string]int{"d": 2},
	}
	g := mustGateway(t, cfg)
	waitAllReady(t, g)

	for i := 0; i < 200; i++ {
		if rec := postMatch(t, g.Handler(), "d", "xxabc", ""); rec.Code != http.StatusOK {
			t.Fatalf("match %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	snap := reg.Snapshot()
	for _, rep := range g.table.Load().replicas {
		picks := snap.Counter(metricSpreadPicks, "replica", rep.id)
		served := snap.Counter(metricRequests, "replica", rep.id, "outcome", "ok")
		if picks == 0 || served == 0 {
			t.Fatalf("replica %s: spread picks=%d served=%d, want both > 0 (load not spread)", rep.id, picks, served)
		}
	}
}
