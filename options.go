package rapid

import "repro/internal/telemetry"

// Option is a functional option accepted by the execution-path
// constructors (NewRunner, NewEngine, Backend). Options irrelevant to a
// given constructor are ignored, so one option slice can configure every
// backend of a design.
type Option func(*config)

// config is the resolved option set.
type config struct {
	workers int
	tel     *telemetry.Registry
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
// Engine.RunBatchSettled. Values <= 0 mean GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithTelemetry routes the execution path's metrics into reg —
// typically telemetry.Default(), so the -metrics-addr exporters see
// them. The default is nil: telemetry disabled, at zero
// measurable cost on the hot path.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.tel = reg }
}
