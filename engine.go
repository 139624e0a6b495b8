package rapid

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// Engine is a reusable high-throughput executor for one design, built on
// the lazy-DFA matching tier (counter and gate components determinize
// whole configurations, counter values included). One engine serves many
// goroutines: each worker draws an independent matcher clone, which owns
// its report scratch, from an internal pool, so per-stream setup cost is a
// pool hit, not a table rebuild.
//
// Engines are safe for concurrent use.
type Engine struct {
	proto   *lazydfa.Matcher
	workers int
	tel     *engineMetrics

	matchers sync.Pool // *lazydfa.Matcher

	// busy counts the goroutines walking streams: each caller of Run and
	// each of runPool's workers while it walks a group, unconditionally,
	// and a split stream's helper, taken only while busy < workers, so a
	// busy engine never splits a stream.
	busy atomic.Int32
}

// engineMetrics is the engine's instrument set: the shared per-backend
// stream accounting plus the engine-specific worker-queue gauge and
// lazy-DFA cache counters. nil means telemetry disabled — the hot path
// pays one pointer test per stream, never per byte.
type engineMetrics struct {
	bm          *backendMetrics
	queueDepth  *telemetry.Gauge
	batches     *telemetry.Counter
	laneStreams *telemetry.Counter
	spanStreams *telemetry.Counter
	lazy        [6]*telemetry.Counter // the matcherCounts, in order
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		bm: newBackendMetrics(reg, string(BackendLazyDFA)),
		queueDepth: reg.Gauge("rapid_engine_queue_depth",
			"Streams accepted by RunBatch/RunBatchSettled and not yet finished."),
		batches: reg.Counter("rapid_engine_batches_total",
			"RunBatch/RunBatchSettled invocations."),
		laneStreams: reg.Counter("rapid_engine_lane_streams_total",
			"Streams a batch worker ran in a group of two or more, interleaved through one lazy-DFA cache."),
		spanStreams: reg.Counter("rapid_engine_span_streams_total",
			"Lone streams walked as spans, of which a helper on an idle worker walked at least one."),
		lazy: [6]*telemetry.Counter{
			reg.Counter("rapid_lazydfa_cache_fills_total",
				"Lazy-DFA transitions materialized on cache miss, counter tier included."),
			reg.Counter("rapid_lazydfa_cache_evictions_total",
				"Lazy-DFA single states evicted by the second-chance clock, counter tier included."),
			reg.Counter("rapid_lazydfa_prefilter_skipped_bytes_total",
				"Input bytes skipped by the rest-state literal prefilter."),
			reg.Counter("rapid_lazydfa_demotions_total",
				"Lazy-DFA tiers (pure or counter) that demoted to the NFA bitset walk."),
			reg.Counter("rapid_lazydfa_speculation_hits_total",
				"Speculative segments of a long lone stream whose guessed start met the true walk."),
			reg.Counter("rapid_lazydfa_speculation_misses_total",
				"Speculative segments whose guessed start never met the true walk, so it walked them itself."),
		},
	}
}

// NewEngine builds the design's batch execution engine. Options:
// WithWorkers, WithTelemetry. Engine construction never aborts on design
// size: each lazy tier's cache starts small and grows toward a 64 MiB cap
// (lazydfa.DefaultMaxCacheBytes) while its eviction rate stays high, and a
// tier whose states cannot fit even there demotes itself to the bitset
// walk.
func (d *Design) NewEngine(opts ...Option) (*Engine, error) {
	cfg := applyOptions(opts)
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	proto, err := lazydfa.New(d.net, nil)
	if err != nil {
		return nil, err
	}
	e := &Engine{proto: proto, workers: workers, tel: newEngineMetrics(cfg.tel)}
	e.matchers.New = func() any { return e.proto.Clone() }
	return e, nil
}

// Tiers describes the engine's execution split, by what its lazy-DFA
// states are: "lazy-dfa" (every component counter- and gate-free: enable
// vectors), "counter-dfa" (every component has counters or gates: enable
// vectors with counter values), or "lazy-dfa+counter-dfa" (both, run side
// by side). serve's design info reports the same string.
func (e *Engine) Tiers() string {
	switch {
	case e.proto.HasPureTier() && e.proto.HasCounterTier():
		return "lazy-dfa+counter-dfa"
	case e.proto.HasPureTier():
		return "lazy-dfa"
	default:
		return "counter-dfa"
	}
}

// Run executes one stream on a pooled matcher and returns the report
// events in (offset, code) order, deduplicated by (offset, code). A stream
// of 32 KiB or more walks as 16 KiB spans, shared with a helper on another
// matcher while one of the engine's workers is idle.
func (e *Engine) Run(ctx context.Context, input []byte) ([]Report, error) {
	m := e.matchers.Get().(*lazydfa.Matcher)
	defer e.matchers.Put(m)
	var res [1]BatchResult
	err := e.runGroup(ctx, m, [][]byte{input}, res[:])
	return res[0].Reports, err
}

// runGroup runs inputs on m as one group, interleaved when there are
// several, and sets res[i].Reports for each; or it returns the group's
// error, which can only be ctx's and so is every stream's.
func (e *Engine) runGroup(ctx context.Context, m *lazydfa.Matcher, inputs [][]byte, res []BatchResult) error {
	e.busy.Add(1)
	defer e.busy.Add(-1)
	var start time.Time
	if e.tel != nil {
		start = time.Now()
	}
	counts0 := e.tel.counts(m)
	// A lone stream of two spans or more splits if a worker is idle, and
	// a core for it (on one core the helper only takes turns with the
	// caller): a non-blocking try-acquire, which a concurrent change of
	// busy fails.
	spans, b := len(inputs[0])/lazydfa.SpanBytes, e.busy.Load()
	if len(inputs) == 1 && spans >= 2 && b < int32(min(e.workers, runtime.GOMAXPROCS(0))) && e.busy.CompareAndSwap(b, b+1) {
		m.Split(ctx, inputs[0], spans)
		handOff(spanJob{e, m})
	}
	raws, err := m.RunGroup(ctx, inputs)
	if e.tel != nil {
		for i, in := range inputs {
			e.tel.bm.record(len(in), len(raws[i]), err, start)
		}
		if len(inputs) > 1 {
			e.tel.laneStreams.Add(uint64(len(inputs)))
		}
		e.tel.addSince(m, counts0)
	}
	if err != nil {
		return err
	}
	// One allocation holds the whole group's reports; each stream's slice
	// is capped at its own end, so an append to it copies instead of
	// writing over the next stream's reports.
	n := 0
	for _, raw := range raws {
		n += len(raw)
	}
	buf := make([]Report, 0, n)
	for i, raw := range raws {
		buf = append(buf, raw...)
		res[i].Reports = buf[len(buf)-len(raw) : len(buf) : len(buf)]
	}
	return nil
}

// matcherCounts is a matcher's cache and speculation counts, in the order
// of engineMetrics.lazy.
type matcherCounts [6]int

func (t *engineMetrics) counts(m *lazydfa.Matcher) matcherCounts {
	if t == nil {
		return matcherCounts{}
	}
	return matcherCounts{m.Fills(), m.Evictions(), m.PrefilterSkipped(),
		m.Demotions(), m.SpeculationHits(), m.SpeculationMisses()}
}

// addSince adds what m counted since c0.
func (t *engineMetrics) addSince(m *lazydfa.Matcher, c0 matcherCounts) {
	if t == nil {
		return
	}
	for i, c := range t.counts(m) {
		t.lazy[i].Add(uint64(c - c0[i]))
	}
}

// spanJob is a split stream, for a helper to walk spans of on a matcher of
// the engine's: m is the matcher that split it.
type spanJob struct {
	e *Engine
	m *lazydfa.Matcher
}

// spanJobs hands split streams to the helper goroutines, GOMAXPROCS of
// them shared by every engine, started on the first split and parked on
// the channel for the life of the process, so no engine owns one. Its
// buffer is one slot per helper, so a send, which allocates nothing, waits
// only while every helper already has a stream waiting. A helper that
// takes a stream after its splitter has claimed every span walks none.
var (
	spanJobs     chan spanJob
	startHelpers sync.Once
)

func handOff(j spanJob) {
	startHelpers.Do(func() {
		spanJobs = make(chan spanJob, runtime.GOMAXPROCS(0))
		for range cap(spanJobs) {
			go helpLoop()
		}
	})
	spanJobs <- j
}

// helpLoop walks the spans a helper claims of each stream handed to it on
// a pooled matcher of the stream's engine, and gives back the worker
// runGroup counted busy for it.
func helpLoop() {
	for j := range spanJobs {
		m := j.e.matchers.Get().(*lazydfa.Matcher)
		counts0 := j.e.tel.counts(m)
		if m.HelpSpans(j.m) > 0 && j.e.tel != nil {
			j.e.tel.spanStreams.Inc()
		}
		j.e.tel.addSince(m, counts0)
		j.e.matchers.Put(m)
		j.e.busy.Add(-1)
	}
}

// runPool runs a batch on up to e.workers workers, the caller's goroutine
// among them, each holding one pooled matcher. Workers take the streams
// from a shared counter in groups of min(lazydfa.Lanes, ⌈n / workers⌉) and
// walk each group interleaved, so lanes never take a stream away from an
// idle core: batches of one or two streams per worker keep the per-stream
// walk.
func (e *Engine) runPool(ctx context.Context, inputs [][]byte, res []BatchResult) {
	workers := min(e.workers, len(inputs))
	r := poolRun{e: e, ctx: ctx, inputs: inputs, res: res,
		group: min(lazydfa.Lanes, (len(inputs)+workers-1)/workers)}
	r.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go r.work()
	}
	r.work()
	r.wg.Wait()
}

// poolRun is the state the workers of one runPool call share.
type poolRun struct {
	e      *Engine
	ctx    context.Context
	inputs [][]byte
	res    []BatchResult
	group  int
	next   atomic.Int64
	wg     sync.WaitGroup
}

func (r *poolRun) work() {
	defer r.wg.Done()
	m := r.e.matchers.Get().(*lazydfa.Matcher)
	defer r.e.matchers.Put(m)
	for {
		hi := int(r.next.Add(int64(r.group)))
		lo := hi - r.group
		if lo >= len(r.inputs) {
			return
		}
		hi = min(hi, len(r.inputs))
		if err := r.e.runGroup(r.ctx, m, r.inputs[lo:hi], r.res[lo:hi]); err != nil {
			for i := lo; i < hi; i++ {
				r.res[i].Err = fmt.Errorf("rapid: engine stream %d: %w", i, err)
			}
		}
		if r.e.tel != nil {
			r.e.tel.queueDepth.Add(int64(lo - hi))
		}
	}
}

// RunBatch shards independent streams across the engine's worker pool and
// returns one report slice per input, in input order regardless of
// completion order. It is RunBatchSettled plus the lowest-index stream's
// error: a stream fails only when ctx ends, which stops every stream still
// running, and the streams that completed keep their results.
func (e *Engine) RunBatch(ctx context.Context, inputs [][]byte) ([][]Report, error) {
	results := make([][]Report, len(inputs))
	var err error
	for i, r := range e.RunBatchSettled(ctx, inputs) {
		results[i] = r.Reports
		if err == nil {
			err = r.Err
		}
	}
	return results, err
}

// BatchResult is one stream's outcome from RunBatchSettled.
type BatchResult struct {
	Reports []Report
	Err     error
}

// RunBatchSettled is RunBatch with per-stream error isolation: every
// stream runs to completion regardless of its neighbors' failures, and
// each result carries its own error instead of one failure aborting the
// batch. Serving layers that coalesce independent requests into one batch
// use this so a bad request degrades only itself. Context cancellation
// still stops the batch: streams not yet finished settle with ctx.Err().
func (e *Engine) RunBatchSettled(ctx context.Context, inputs [][]byte) []BatchResult {
	results := make([]BatchResult, len(inputs))
	if len(inputs) == 0 {
		return results
	}
	if e.tel != nil {
		e.tel.batches.Inc()
		e.tel.queueDepth.Add(int64(len(inputs)))
	}
	e.runPool(ctx, inputs, results)
	return results
}
