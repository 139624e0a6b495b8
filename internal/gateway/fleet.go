package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"sort"
	"strings"

	"repro/internal/resilience"
)

// FleetManifest declares the replica fleet and each design's replication
// factor — the routing contract every gateway in front of the fleet must
// agree on. rapidgw loads it from a JSON file and re-reads it on SIGHUP,
// so replicas roll in and out of a live gateway without a restart:
//
//	{"replicas": ["10.0.0.1:8765", "10.0.0.2:8765"],
//	 "default_replication": 1,
//	 "designs": {"hot": 2, "cold": 1}}
//
// Designs listed in Designs are mounted on their first R ring candidates
// and /v1/match load is spread across those candidates by
// power-of-two-choices on in-flight count; unlisted designs use
// DefaultReplication. The listed designs are also the ones whose movement
// a rebalance accounts for, so listing every mounted design (even at the
// default factor) buys exact moved-design accounting.
type FleetManifest struct {
	// Replicas are rapidserve base URLs or host:port pairs. Required.
	Replicas []string `json:"replicas"`
	// DefaultReplication is the replication factor of designs absent from
	// Designs; <= 0 means 1.
	DefaultReplication int `json:"default_replication,omitempty"`
	// Designs maps design names to their replication factors (>= 1).
	Designs map[string]int `json:"designs,omitempty"`
}

func (m FleetManifest) withDefaults() FleetManifest {
	if m.DefaultReplication <= 0 {
		m.DefaultReplication = 1
	}
	return m
}

// validate rejects manifests no routing table can be built from.
func (m FleetManifest) validate() error {
	if len(m.Replicas) == 0 {
		return fmt.Errorf("gateway: fleet manifest has no replicas")
	}
	for name, r := range m.Designs {
		if name == "" {
			return fmt.Errorf("gateway: fleet manifest has a design with an empty name")
		}
		if r < 1 {
			return fmt.Errorf("gateway: fleet manifest design %q has replication %d, want >= 1", name, r)
		}
	}
	return nil
}

// LoadFleetManifest reads and validates a fleet-manifest file. An unknown
// key is refused: a misspelled "default_replication" would otherwise
// silently route every design to one replica.
func LoadFleetManifest(path string) (FleetManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FleetManifest{}, err
	}
	var m FleetManifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return FleetManifest{}, fmt.Errorf("gateway: fleet manifest %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return FleetManifest{}, fmt.Errorf("gateway: fleet manifest %s: data after the manifest object", path)
	}
	if err := m.validate(); err != nil {
		return FleetManifest{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// normalizeReplicaURL resolves one manifest entry into the replica's
// stable identity (host:port — the ring key and metric label) and its
// normalized base URL.
func normalizeReplicaURL(raw string) (id, base string, err error) {
	base = strings.TrimSuffix(raw, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" || u.Hostname() == "" {
		return "", "", fmt.Errorf("gateway: bad replica URL %q", raw)
	}
	return u.Host, base, nil
}

// routeTable is one immutable routing epoch: the replica membership, the
// consistent-hash ring over it, and the per-design replication factors.
// Request paths load the table once and use it for the whole request, so
// a concurrent rebalance never changes routing mid-request — in-flight
// legs keep their replica objects even after those leave the fleet.
type routeTable struct {
	replicas    []*replica
	byID        map[string]*replica
	ring        *ring
	repl        map[string]int
	defaultRepl int
	vnodes      int
	digest      string
}

// replicationFor returns a design's replication factor, capped at the
// fleet size.
func (t *routeTable) replicationFor(design string) int {
	r := t.defaultRepl
	if v, ok := t.repl[design]; ok {
		r = v
	}
	if r > len(t.replicas) {
		r = len(t.replicas)
	}
	if r < 1 {
		r = 1
	}
	return r
}

// replicaSet returns the ids of the design's current candidate set — the
// first R distinct ring candidates, the replicas the design is expected
// to be hot on.
func (t *routeTable) replicaSet(design string) []string {
	cands := t.ring.candidates(design)
	r := t.replicationFor(design)
	if r > len(cands) {
		r = len(cands)
	}
	ids := make([]string, 0, r)
	for _, c := range cands[:r] {
		ids = append(ids, t.replicas[c].id)
	}
	return ids
}

// fleetDigest fingerprints everything that determines routing: the sorted
// membership, the vnode count, and the per-design replication factors.
// Two gateways with equal digests route every design identically — the
// multi-gateway HA invariant the ha-e2e harness asserts.
func fleetDigest(ids []string, vnodes, defaultRepl int, repl map[string]int) string {
	sortedIDs := append([]string(nil), ids...)
	sort.Strings(sortedIDs)
	names := make([]string, 0, len(repl))
	for name := range repl {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "vnodes=%d\x00default=%d\x00", vnodes, defaultRepl)
	for _, id := range sortedIDs {
		fmt.Fprintf(h, "replica=%s\x00", id)
	}
	for _, name := range names {
		fmt.Fprintf(h, "design=%s:%d\x00", name, repl[name])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// buildTable resolves a manifest into a routing table, reusing replica
// objects from prev (same id keeps its breaker state, in-flight count,
// and prober) and constructing fresh ones — probers started — for new
// members.
func (g *Gateway) buildTable(m FleetManifest, prev *routeTable) (*routeTable, []*replica, error) {
	m = m.withDefaults()
	if err := m.validate(); err != nil {
		return nil, nil, err
	}
	t := &routeTable{
		byID:        make(map[string]*replica, len(m.Replicas)),
		repl:        make(map[string]int, len(m.Designs)),
		defaultRepl: m.DefaultReplication,
		vnodes:      g.cfg.Vnodes,
	}
	for name, r := range m.Designs {
		t.repl[name] = r
	}
	var added []*replica
	ids := make([]string, 0, len(m.Replicas))
	for _, raw := range m.Replicas {
		id, base, err := normalizeReplicaURL(raw)
		if err != nil {
			return nil, nil, err
		}
		if t.byID[id] != nil {
			return nil, nil, fmt.Errorf("gateway: duplicate replica %q", id)
		}
		rep := (*replica)(nil)
		if prev != nil {
			rep = prev.byID[id]
		}
		if rep == nil {
			rep = &replica{id: id, base: base, breaker: resilience.NewBreaker(g.cfg.Breaker)}
			repID := rep.id
			rep.breaker.OnTransition(func(_, to resilience.BreakerState) {
				g.tel.breakerState.With(repID).Set(int64(to))
				g.tel.breakerTransitions.With(repID, to.String()).Inc()
			})
			g.tel.breakerState.With(repID).Set(int64(resilience.BreakerClosed))
			added = append(added, rep)
		}
		t.byID[id] = rep
		t.replicas = append(t.replicas, rep)
		ids = append(ids, id)
	}
	t.ring = newRing(ids, g.cfg.Vnodes)
	t.digest = fleetDigest(ids, g.cfg.Vnodes, t.defaultRepl, t.repl)
	return t, added, nil
}

// RebalanceSummary reports what one ApplyFleet call changed.
type RebalanceSummary struct {
	// AddedReplicas joined the ring; RemovedReplicas left it (their
	// probers stop, in-flight legs on them complete untouched).
	AddedReplicas   []string `json:"added_replicas"`
	RemovedReplicas []string `json:"removed_replicas"`
	// MovedDesigns are the manifest-listed designs whose candidate set
	// changed membership; TrackedDesigns counts all listed designs, so
	// Moved/Tracked is the observed movement fraction a vnode ring bounds
	// near R/n per added or removed replica.
	MovedDesigns   []string `json:"moved_designs"`
	TrackedDesigns int      `json:"tracked_designs"`
	// Digest is the new routing-table digest.
	Digest string `json:"digest"`
}

func (s RebalanceSummary) String() string {
	return fmt.Sprintf("added=%d removed=%d moved=%d/%d digest=%s",
		len(s.AddedReplicas), len(s.RemovedReplicas), len(s.MovedDesigns), s.TrackedDesigns, s.Digest)
}

// ApplyFleet reconciles the routing table against a new fleet manifest —
// the hot rebalance behind rapidgw's SIGHUP. Membership is diffed: kept
// replicas carry their breaker state, in-flight counts, and probers
// across the swap; new replicas start probing immediately (they admit
// traffic once their first probe passes); removed replicas stop being
// probed and receive no new requests, while requests already routed to
// them — including streams mid-leg — run to completion on the old table.
// No admitted request is dropped: the table swap is atomic and every
// request resolved its routing from exactly one epoch.
func (g *Gateway) ApplyFleet(m FleetManifest) (RebalanceSummary, error) {
	g.fleetMu.Lock()
	defer g.fleetMu.Unlock()
	prev := g.table.Load()
	next, added, err := g.buildTable(m, prev)
	if err != nil {
		g.tel.rebalances.With("error").Inc()
		return RebalanceSummary{}, err
	}

	summary := RebalanceSummary{Digest: next.digest}
	for _, rep := range next.replicas {
		if prev.byID[rep.id] == nil {
			summary.AddedReplicas = append(summary.AddedReplicas, rep.id)
		}
	}
	var removed []*replica
	for _, rep := range prev.replicas {
		if next.byID[rep.id] == nil {
			summary.RemovedReplicas = append(summary.RemovedReplicas, rep.id)
			removed = append(removed, rep)
		}
	}

	// Moved-design accounting over the union of listed designs: a design
	// moved when the membership of its candidate set changed.
	tracked := make(map[string]bool, len(prev.repl)+len(next.repl))
	for name := range prev.repl {
		tracked[name] = true
	}
	for name := range next.repl {
		tracked[name] = true
	}
	names := make([]string, 0, len(tracked))
	for name := range tracked {
		names = append(names, name)
	}
	sort.Strings(names)
	summary.TrackedDesigns = len(names)
	for _, name := range names {
		if !sameMembers(prev.replicaSet(name), next.replicaSet(name)) {
			summary.MovedDesigns = append(summary.MovedDesigns, name)
		}
	}

	g.table.Store(next)
	for _, rep := range added {
		g.startProber(rep)
	}
	for _, rep := range removed {
		rep.stopProber()
	}
	g.tel.rebalances.With("ok").Inc()
	g.tel.movedDesigns.Add(uint64(len(summary.MovedDesigns)))
	g.tel.fleetSize.Set(int64(len(next.replicas)))
	g.updateReadyGauge()
	return summary, nil
}

// Digest returns the current routing-table digest.
func (g *Gateway) Digest() string { return g.table.Load().digest }

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if !set[id] {
			return false
		}
	}
	return true
}

// startProber launches rep's readiness-probe loop under a per-replica
// cancel, so a rebalance can stop the prober of a removed replica without
// touching the rest of the fleet.
func (g *Gateway) startProber(rep *replica) {
	ctx, cancel := context.WithCancel(g.baseCtx)
	rep.probeCancel = cancel
	g.background.Add(1)
	go g.probeLoop(ctx, rep)
}
