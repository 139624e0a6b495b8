// Command rapidgw fronts a fleet of rapidserve replicas with
// health-driven routing: requests route by consistent hashing on the
// design name, each replica is probed actively and guarded by a circuit
// breaker, and admitted requests fail over to the next replica in ring
// order when one dies — including streams, which resume at the first
// unacknowledged record. Designs with a replication factor above 1 in
// the fleet manifest spread load across their ring candidates by
// power-of-two-choices on in-flight count, and identical idempotent
// matches are answered from a bounded gateway-side cache.
//
// Usage:
//
//	rapidgw -replicas 10.0.0.1:8765,10.0.0.2:8765,10.0.0.3:8765
//	rapidgw -fleet fleet.json -addr :8764 -metrics-addr :9191
//
// With -fleet, the manifest file declares the membership and per-design
// replication factors, and SIGHUP re-reads it: replicas roll in and out
// of the live ring (bounded design movement, no dropped in-flight
// requests, no restart). Any number of rapidgw processes can front one
// fleet — they are stateless and, given the same manifest, expose
// identical routing digests on GET /v1/replicas.
//
// Endpoints mirror rapidserve (POST /v1/match, POST /v1/match/stream,
// GET /v1/designs, /healthz, /readyz) plus GET /v1/replicas, which
// reports the routing digest and each replica's readiness, breaker
// state, in-flight count, and last probe error. A raw
// application/octet-stream match routes on its ?design= query and its
// body is never parsed; raw and JSON matches of one input are separate
// cache entries, and a replica reply over the 64 MiB body cap is
// answered 502 internal, never relayed truncated. SIGTERM (or SIGINT)
// drains gracefully: readiness flips to 503, in-flight requests and
// stream failovers complete, then the process exits 0. See
// docs/OPERATIONS.md for topology and tuning.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", ":8764", "gateway listen address")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this dedicated address")
		replicas      = flag.String("replicas", "", "comma-separated rapidserve base URLs or host:port pairs")
		fleetPath     = flag.String("fleet", "", "fleet-manifest JSON file (replicas + per-design replication); re-read on SIGHUP")
		vnodes        = flag.Int("vnodes", 64, "consistent-hash points per replica")
		cacheBytes    = flag.Int64("cache-bytes", 32<<20, "idempotent-response cache budget in bytes (0 disables)")
		probeInterval = flag.Duration("probe-interval", time.Second, "active /readyz probe period")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint on gateway-originated 503s")
		maxAttempts   = flag.Int("max-attempts", 0, "failover attempts per request (0 = replicas+1)")
		breakerTrip   = flag.Int("breaker-threshold", 5, "consecutive failures that open a replica's breaker")
		breakerReopen = flag.Duration("breaker-open", 5*time.Second, "how long an open breaker waits before admitting probes")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline after SIGTERM")
	)
	flag.Parse()

	cfg := gateway.Config{
		Addr:          *addr,
		MetricsAddr:   *metricsAddr,
		Vnodes:        *vnodes,
		CacheMaxBytes: *cacheBytes,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		RetryAfter:    *retryAfter,
		Policy:        resilience.Policy{MaxAttempts: *maxAttempts},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *breakerTrip,
			OpenTimeout:      *breakerReopen,
		},
	}
	switch {
	case *fleetPath != "":
		m, err := gateway.LoadFleetManifest(*fleetPath)
		if err != nil {
			fatal(err)
		}
		cfg.Fleet = m
	case *replicas != "":
		cfg.Replicas = strings.Split(*replicas, ",")
	default:
		fmt.Fprintln(os.Stderr, "rapidgw: -fleet or -replicas is required")
		flag.Usage()
		os.Exit(2)
	}
	if *metricsAddr != "" {
		cfg.Telemetry = telemetry.Default()
	}
	g, err := gateway.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := g.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rapidgw: routing %d replicas on http://%s digest=%s\n",
		len(g.Replicas()), g.Addr(), g.Digest())

	// SIGHUP re-reads the fleet manifest and rebalances the live ring.
	hup := make(chan os.Signal, 1)
	if *fleetPath != "" {
		signal.Notify(hup, syscall.SIGHUP)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for done := false; !done; {
		select {
		case <-hup:
			m, err := gateway.LoadFleetManifest(*fleetPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rapidgw: reload:", err)
				continue
			}
			summary, err := g.ApplyFleet(m)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rapidgw: rebalance:", err)
				continue
			}
			fmt.Fprintln(os.Stderr, "rapidgw: rebalanced:", summary)
		case <-ctx.Done():
			done = true
		}
	}
	fmt.Fprintln(os.Stderr, "rapidgw: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := g.Shutdown(drainCtx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "rapidgw: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapidgw:", err)
	os.Exit(1)
}
