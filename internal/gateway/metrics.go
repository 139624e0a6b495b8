package gateway

import (
	"repro/internal/telemetry"
)

// The gateway.* metric family. Every per-replica metric carries the
// replica's host:port as its label so one scrape shows the whole fleet.
// See docs/OBSERVABILITY.md for the catalog.
const (
	metricRequests           = "rapid_gateway_requests_total"
	metricFailovers          = "rapid_gateway_failovers_total"
	metricBreakerState       = "rapid_gateway_breaker_state"
	metricBreakerTransitions = "rapid_gateway_breaker_transitions_total"
	metricProbes             = "rapid_gateway_probes_total"
	metricReplicasReady      = "rapid_gateway_replicas_ready"
	metricStreamedRecords    = "rapid_gateway_stream_records_total"

	// Fleet rebalancing (ApplyFleet / SIGHUP).
	metricRebalances   = "rapid_gateway_rebalances_total"
	metricMovedDesigns = "rapid_gateway_rebalance_moved_designs_total"
	metricFleetSize    = "rapid_gateway_fleet_replicas"

	// Replicated-design load spread.
	metricReplicaInflight = "rapid_gateway_replica_inflight"
	metricSpreadPicks     = "rapid_gateway_spread_picks_total"

	// The gateway.cache.* family: the idempotent-response cache.
	metricCacheHits          = "rapid_gateway_cache_hits_total"
	metricCacheMisses        = "rapid_gateway_cache_misses_total"
	metricCacheEvictions     = "rapid_gateway_cache_evictions_total"
	metricCacheInvalidations = "rapid_gateway_cache_invalidations_total"
	metricCacheBytes         = "rapid_gateway_cache_bytes"
	metricCacheEntries       = "rapid_gateway_cache_entries"
)

// gatewayMetrics is the gateway's instrument set. Everything is nil-safe
// via the telemetry package, so a nil registry disables the family
// without branches on the request path.
type gatewayMetrics struct {
	requests           *telemetry.CounterVec // replica, outcome
	failovers          *telemetry.CounterVec // path
	breakerState       *telemetry.GaugeVec   // replica
	breakerTransitions *telemetry.CounterVec // replica, to
	probes             *telemetry.CounterVec // replica, outcome
	replicasReady      *telemetry.Gauge
	streamRecords      *telemetry.CounterVec // outcome

	rebalances   *telemetry.CounterVec // outcome (ok, error)
	movedDesigns *telemetry.Counter
	fleetSize    *telemetry.Gauge

	replicaInflight *telemetry.GaugeVec   // replica
	spreadPicks     *telemetry.CounterVec // replica

	cacheHits          *telemetry.Counter
	cacheMisses        *telemetry.Counter
	cacheEvictions     *telemetry.Counter
	cacheInvalidations *telemetry.Counter
	cacheBytes         *telemetry.Gauge
	cacheEntries       *telemetry.Gauge
}

func newGatewayMetrics(reg *telemetry.Registry) *gatewayMetrics {
	return &gatewayMetrics{
		requests: reg.CounterVec(metricRequests,
			"Requests forwarded to a replica, by replica and outcome (ok, relayed_error, retried, transport_error).",
			"replica", "outcome"),
		failovers: reg.CounterVec(metricFailovers,
			"Failovers to another replica after a leg failed, by path (match, stream, designs).", "path"),
		breakerState: reg.GaugeVec(metricBreakerState,
			"Circuit breaker state per replica: 0 closed, 1 half-open, 2 open.", "replica"),
		breakerTransitions: reg.CounterVec(metricBreakerTransitions,
			"Circuit breaker transitions, by replica and target state.", "replica", "to"),
		probes: reg.CounterVec(metricProbes,
			"Active readiness probes, by replica and outcome (ok, error).", "replica", "outcome"),
		replicasReady: reg.Gauge(metricReplicasReady,
			"Replicas whose last readiness probe succeeded."),
		streamRecords: reg.CounterVec(metricStreamedRecords,
			"Stream records relayed to clients, by outcome (ok, error, unavailable).", "outcome"),
		rebalances: reg.CounterVec(metricRebalances,
			"Fleet-manifest rebalances applied, by outcome (ok, error).", "outcome"),
		movedDesigns: reg.Counter(metricMovedDesigns,
			"Manifest-listed designs whose candidate set changed across a rebalance."),
		fleetSize: reg.Gauge(metricFleetSize,
			"Replicas in the current routing table."),
		replicaInflight: reg.GaugeVec(metricReplicaInflight,
			"Requests currently in flight to a replica — the power-of-two-choices spread signal.", "replica"),
		spreadPicks: reg.CounterVec(metricSpreadPicks,
			"Replicated-design requests routed to a replica by the load-spread picker.", "replica"),
		cacheHits: reg.Counter(metricCacheHits,
			"Idempotent match responses served from the gateway cache without touching a replica."),
		cacheMisses: reg.Counter(metricCacheMisses,
			"Cacheable match requests that had to be forwarded to a replica."),
		cacheEvictions: reg.Counter(metricCacheEvictions,
			"Cache entries evicted to stay inside the byte bound."),
		cacheInvalidations: reg.Counter(metricCacheInvalidations,
			"Cache entries purged because their design's hash changed (hot reload)."),
		cacheBytes: reg.Gauge(metricCacheBytes,
			"Bytes currently held by the idempotent-response cache."),
		cacheEntries: reg.Gauge(metricCacheEntries,
			"Entries currently held by the idempotent-response cache."),
	}
}
