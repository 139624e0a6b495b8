package rapid

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Matcher is one execution backend for a compiled design behind the
// uniform interface every tier implements: the functional device model,
// the lazy-DFA engine, or the reference simulator. Construct one with
// Design.Backend. A Matcher owns its mutable state and is not safe for
// concurrent use unless documented otherwise.
type Matcher interface {
	// Name identifies the backend in metrics labels and errors; it
	// matches the BackendKind for the built-in tiers.
	Name() string
	// Match executes the design over one input stream.
	Match(ctx context.Context, input []byte) ([]Report, error)
}

// backend is the one Matcher adapter: a tier's kind name and its run
// function. Design.Backend builds it for every kind.
type backend struct {
	name string
	run  func(ctx context.Context, input []byte) ([]Report, error)
}

func (b backend) Name() string { return b.name }
func (b backend) Match(ctx context.Context, input []byte) ([]Report, error) {
	return b.run(ctx, input)
}

// BackendError attributes a backend failure (including a recovered panic)
// to the backend that produced it.
type BackendError struct {
	Backend string
	Err     error
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("rapid: backend %q: %v", e.Backend, e.Err)
}

func (e *BackendError) Unwrap() error { return e.Err }

// chainMetrics is the failover chain's instrument set; nil means
// telemetry disabled.
type chainMetrics struct {
	reg         *telemetry.Registry
	attempts    *telemetry.CounterVec // backend
	served      *telemetry.CounterVec // backend
	failures    *telemetry.CounterVec // backend, cause
	divergences *telemetry.CounterVec // backend
	exhausted   *telemetry.Counter
}

func newChainMetrics(reg *telemetry.Registry, backends []Matcher) *chainMetrics {
	if reg == nil {
		return nil
	}
	m := &chainMetrics{
		reg: reg,
		attempts: reg.CounterVec("rapid_failover_attempts_total",
			"Backend attempts by the failover chain.", "backend"),
		served: reg.CounterVec("rapid_failover_served_total",
			"Streams whose result a backend served.", "backend"),
		failures: reg.CounterVec("rapid_failover_failures_total",
			"Failovers fired, by failing backend and cause (error, panic, divergence).",
			"backend", "cause"),
		divergences: reg.CounterVec("rapid_failover_divergences_total",
			"Cross-check divergences caught, by diverging backend.", "backend"),
		exhausted: reg.Counter("rapid_failover_exhausted_total",
			"Streams every backend failed on."),
	}
	// Pre-touch each chain backend's series so a scrape shows every rung
	// of the ladder from the first request.
	for _, b := range backends {
		m.attempts.With(b.Name())
		m.served.With(b.Name())
	}
	return m
}

// failureCause classifies a backend error for the failovers-by-cause
// counter; cross-check divergences are counted as "divergence" directly.
func failureCause(err error) string {
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	return "error"
}

// FailoverChain executes streams against an ordered list of backends,
// falling to the next on failure. Panics in any backend are recovered into
// structured errors instead of crashing the process, and the serving
// backend, failures and divergences land in the rapid_failover_* counters
// when telemetry is on. With CrossCheck enabled, each non-reference
// result is verified against the chain's last backend and divergent
// backends are failed over — the degradation ladder heterogeneous matching
// deployments use (device → lazy DFA → reference simulator).
//
// A chain is safe for concurrent use: Run serializes streams, because the
// underlying backends own mutable execution state. The chain is the
// trusted-degradation path, not the throughput path — concurrent serving
// layers batch on Engine and fall back to a chain per design.
type FailoverChain struct {
	// CrossCheck verifies every result from a non-final backend against
	// the final backend's and fails over on divergence.
	CrossCheck bool

	backends []Matcher
	tel      *chainMetrics

	// runMu serializes stream execution across the chain's backends,
	// which are single-threaded matchers.
	runMu sync.Mutex
}

// NewFailoverChain builds a chain over the given backends, tried in order.
func NewFailoverChain(backends ...Matcher) *FailoverChain {
	return &FailoverChain{backends: append([]Matcher(nil), backends...)}
}

// UseTelemetry routes the chain's failover metrics (attempts, failures by
// cause, divergences, served streams) and per-stream spans into reg, and
// returns the chain for chaining. A nil reg disables.
func (c *FailoverChain) UseTelemetry(reg *telemetry.Registry) *FailoverChain {
	c.tel = newChainMetrics(reg, c.backends)
	return c
}

// FailoverChain builds the design's standard degradation ladder, one rung
// per backend kind in ladder order: the fast device model, then the
// bounded-memory lazy-DFA engine (counter values are part of its DFA
// states), then the reference simulator. Every rung must construct; the
// first construction error is returned. Options apply to every backend;
// WithTelemetry additionally wires the chain's own failover metrics.
func (d *Design) FailoverChain(opts ...Option) (*FailoverChain, error) {
	cfg := applyOptions(opts)
	var backends []Matcher
	for _, kind := range BackendKinds() {
		m, err := d.Backend(kind, opts...)
		if err != nil {
			return nil, err
		}
		backends = append(backends, m)
	}
	return NewFailoverChain(backends...).UseTelemetry(cfg.tel), nil
}

// Backends returns the backend names in failover order.
func (c *FailoverChain) Backends() []string {
	out := make([]string, len(c.backends))
	for i, b := range c.backends {
		out[i] = b.Name()
	}
	return out
}

// match runs one backend with panic recovery.
func matchRecovered(ctx context.Context, b Matcher, input []byte) (reports []Report, err error) {
	err = resilience.Recover(func() error {
		var merr error
		reports, merr = b.Match(ctx, input)
		return merr
	})
	return reports, err
}

// noteFailure counts one disqualified backend attempt by cause.
func (c *FailoverChain) noteFailure(name, cause string) {
	if c.tel != nil {
		c.tel.failures.With(name, cause).Inc()
	}
}

// Run executes one stream, trying each backend in order and returning the
// first trustworthy result. It returns ctx.Err() once the context is done,
// and an error wrapping the last *BackendError when every backend failed.
// Concurrent calls are safe and execute one stream at a time.
func (c *FailoverChain) Run(ctx context.Context, input []byte) ([]Report, error) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	var span *telemetry.Span
	if c.tel != nil {
		span = c.tel.reg.StartSpan("failover.stream")
		defer span.End()
	}
	var last *BackendError
	for i, b := range c.backends {
		if err := ctx.Err(); err != nil {
			span.Fail(err)
			return nil, err
		}
		if c.tel != nil {
			c.tel.attempts.With(b.Name()).Inc()
		}
		reports, err := matchRecovered(ctx, b, input)
		if err != nil {
			if ctx.Err() != nil {
				span.Fail(ctx.Err())
				return nil, ctx.Err()
			}
			c.noteFailure(b.Name(), failureCause(err))
			last = &BackendError{Backend: b.Name(), Err: err}
			continue
		}
		if c.CrossCheck && i < len(c.backends)-1 {
			ref := c.backends[len(c.backends)-1]
			refReports, refErr := matchRecovered(ctx, ref, input)
			if refErr == nil && !sameReportSet(reports, refReports) {
				c.noteFailure(b.Name(), "divergence")
				if c.tel != nil {
					c.tel.divergences.With(b.Name()).Inc()
					c.tel.served.With(ref.Name()).Inc()
				}
				return refReports, nil
			}
		}
		if c.tel != nil {
			c.tel.served.With(b.Name()).Inc()
		}
		return reports, nil
	}
	if c.tel != nil {
		c.tel.exhausted.Inc()
	}
	if last != nil {
		err := fmt.Errorf("rapid: all %d backends failed: %w", len(c.backends), last)
		span.Fail(err)
		return nil, err
	}
	err := fmt.Errorf("rapid: failover chain has no backends")
	span.Fail(err)
	return nil, err
}

// sameReportSet compares the distinct (offset, code) sets of two report
// lists — the backend-independent observable of a stream.
func sameReportSet(a, b []Report) bool {
	return slices.Equal(Canonical(slices.Clone(a)), Canonical(slices.Clone(b)))
}
