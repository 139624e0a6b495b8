package rapid

import (
	"repro/internal/automata"
	"repro/internal/telemetry"
)

// Option is a functional option accepted by the execution-path
// constructors (NewRunner, NewEngine, CompileCPU, Backend,
// FailoverChain). Options irrelevant to a given constructor are ignored,
// so one option slice can configure a whole chain of backends.
type Option func(*config)

// config is the resolved option set.
type config struct {
	workers         int
	maxCachedStates int
	maxCacheBytes   int64
	lanes           int
	tel             *telemetry.Registry
}

func applyOptions(opts []Option) config {
	var c config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithWorkers sets the worker-pool size for Engine.RunBatch and
// Engine.RunRecords. Values <= 0 mean GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithMaxCachedStates fixes each lazy-DFA matcher's state cache (each
// tier's, when a design has both pure and counter components) at exactly
// n states; a full cache evicts one cold state at a time (second-chance
// clock), so memory stays bounded without aborting. Fixing the size also
// disables the adaptive budget controller and mid-stream demotion, making
// execution deterministic. Values <= 0 (the default) select the adaptive
// budget: the cache starts small and grows toward the WithMaxCacheBytes
// cap while the eviction rate stays high.
func WithMaxCachedStates(n int) Option {
	return func(c *config) { c.maxCachedStates = n }
}

// WithMaxCacheBytes caps the adaptive lazy-DFA cache budget in estimated
// bytes per matcher (default lazydfa.DefaultMaxCacheBytes, 64 MiB). When a
// design's working set cannot fit even at this cap and eviction churn
// stays high, the matcher demotes itself to the NFA bitset walk. Ignored
// when WithMaxCachedStates fixes the size.
func WithMaxCacheBytes(n int64) Option {
	return func(c *config) { c.maxCacheBytes = n }
}

// MaxLanes is the widest lane batch WithLanes can request: one stream per
// bit of a machine word.
const MaxLanes = automata.MaxLanes

// WithLanes enables lane-batched execution for Engine.RunBatch and
// Engine.RunRecords: up to n independent streams (clamped to [0, MaxLanes])
// advance in lock-step through one 64-bit-word-per-element bitset walk, so
// small designs amortize per-stream overhead across a whole machine word.
// Lane execution applies only to pure-STE designs; when the design has
// counters or gates the engine silently falls back to per-stream execution
// (Engine.Lanes reports 0). n <= 0 disables lane batching (the default).
func WithLanes(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		if n > MaxLanes {
			n = MaxLanes
		}
		c.lanes = n
	}
}

// WithTelemetry routes the execution path's metrics and spans into reg —
// typically telemetry.Default(), so rapid.Metrics() and the -metrics-addr
// exporters see them. The default is nil: telemetry disabled, at zero
// measurable cost on the hot path.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.tel = reg }
}
