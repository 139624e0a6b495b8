package rapid

import (
	"context"

	"repro/internal/automata"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// runnerMetrics is the checkpoint-replay instrument set RunResilient
// maintains beside the Runner's per-backend stream accounting. nil means
// telemetry disabled.
type runnerMetrics struct {
	reg         *telemetry.Registry
	checkpoints *telemetry.Counter
	retries     *telemetry.Counter
	replayed    *telemetry.Counter
	restores    *telemetry.Counter
}

func newRunnerMetrics(reg *telemetry.Registry) *runnerMetrics {
	if reg == nil {
		return nil
	}
	return &runnerMetrics{
		reg: reg,
		checkpoints: reg.Counter("rapid_resilient_checkpoints_total",
			"Simulator snapshots taken by RunResilient."),
		retries: reg.Counter("rapid_resilient_retries_total",
			"Segment replays after transient faults."),
		replayed: reg.Counter("rapid_resilient_replayed_bytes_total",
			"Input bytes re-processed across segment replays."),
		restores: reg.Counter("rapid_resilient_restores_total",
			"Checkpoint restores performed before replaying a segment."),
	}
}

// RunOptions configures fault-tolerant streaming execution.
type RunOptions struct {
	// Checkpoint is the number of symbols between simulator snapshots;
	// a transient fault replays only from the last snapshot. <= 0 uses
	// 4096 (the cancellation-check interval).
	Checkpoint int
	// Policy bounds and paces retries of each checkpoint segment. The
	// zero value means 3 attempts with jittered exponential backoff.
	Policy resilience.Policy
	// BeforeSymbol, when non-nil, is consulted before each stream offset
	// is processed; returning an error models a device fault at that
	// offset (ap.Injector.BeforeSymbol fits this hook). The error aborts
	// the current segment, which is retried from its checkpoint under
	// Policy.
	BeforeSymbol func(offset int) error
	// MapSymbol, when non-nil, transforms the symbol the device sees at
	// each offset (ap.Injector.Apply fits this hook) — the model of a
	// corrupting data path.
	MapSymbol func(offset int, sym byte) byte
}

func (o *RunOptions) withDefaults() RunOptions {
	var out RunOptions
	if o != nil {
		out = *o
	}
	if out.Checkpoint <= 0 {
		out.Checkpoint = automata.CancelCheckInterval
	}
	return out
}

// RunStats describes what fault handling a resilient run performed.
type RunStats struct {
	// Checkpoints is the number of snapshots taken.
	Checkpoints int
	// Retries is the number of segment replays after transient faults.
	Retries int
	// ReplayedSymbols is the total symbols re-processed across replays.
	ReplayedSymbols int
}

// RunResilient streams input through the design with checkpoint-replay
// fault tolerance: the simulator state is snapshotted every
// opts.Checkpoint symbols, and when a fault interrupts a segment the run
// backs off, restores the last snapshot, and replays only that segment —
// bounded by opts.Policy. Reports are byte-identical to a fault-free run
// whenever the faults are transient (they heal within the retry budget).
// Cancellation via ctx aborts between segments and returns ctx.Err().
//
// With telemetry enabled on the runner, checkpoints, retries, restores,
// and replayed bytes land in the rapid_resilient_* counters and each run
// emits a "runner.resilient" span.
func (r *Runner) RunResilient(ctx context.Context, input []byte, opts *RunOptions) ([]Report, RunStats, error) {
	o := opts.withDefaults()
	var stats RunStats
	var span *telemetry.Span
	if r.tel != nil {
		span = r.tel.reg.StartSpan("runner.resilient")
		defer span.End()
	}
	start := r.bm.start()
	sim := r.sim
	sim.Reset()
	snap := sim.Snapshot()
	for segStart := 0; segStart < len(input); {
		end := segStart + o.Checkpoint
		if end > len(input) {
			end = len(input)
		}
		err := resilience.Retry(ctx, o.Policy, func(attempt int) error {
			if attempt > 0 {
				replayed := sim.Offset() - snap.Offset()
				stats.Retries++
				stats.ReplayedSymbols += replayed
				if r.tel != nil {
					r.tel.retries.Inc()
					r.tel.restores.Inc()
					r.tel.replayed.Add(uint64(replayed))
				}
				sim.Restore(snap)
			}
			for off := sim.Offset(); off < end; off++ {
				if o.BeforeSymbol != nil {
					if err := o.BeforeSymbol(off); err != nil {
						return err
					}
				}
				sym := input[off]
				if o.MapSymbol != nil {
					sym = o.MapSymbol(off, sym)
				}
				sim.Step(sym)
			}
			return nil
		})
		if err != nil {
			span.Fail(err)
			out := convertReports(sim.Reports(), r.reports)
			r.bm.record(len(input), len(out), err, start)
			return out, stats, err
		}
		snap = sim.Snapshot()
		stats.Checkpoints++
		if r.tel != nil {
			r.tel.checkpoints.Inc()
		}
		segStart = end
	}
	out := convertReports(sim.Reports(), r.reports)
	r.bm.record(len(input), len(out), nil, start)
	return out, stats, nil
}
