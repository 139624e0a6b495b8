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
// goroutines: each worker draws an independent matcher clone and a
// recycled report buffer from internal pools, so per-stream setup cost is
// a pool hit, not a table rebuild.
//
// Engines are safe for concurrent use.
type Engine struct {
	proto   *lazydfa.Matcher
	reports map[int]string
	workers int
	tel     *engineMetrics

	matchers sync.Pool // *lazydfa.Matcher
	bufs     sync.Pool // *[]lazydfa.Report
}

// engineMetrics is the engine's instrument set: the shared per-backend
// stream accounting plus the engine-specific worker-queue gauge and
// lazy-DFA cache counters. nil means telemetry disabled — the hot path
// pays one pointer test per stream, never per byte.
type engineMetrics struct {
	bm               *backendMetrics
	queueDepth       *telemetry.Gauge
	batches          *telemetry.Counter
	cacheFills       *telemetry.Counter
	cacheFlushes     *telemetry.Counter
	cacheEvictions   *telemetry.Counter
	prefilterSkipped *telemetry.Counter
	demotions        *telemetry.Counter
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		bm: newBackendMetrics(reg, string(BackendLazyDFA)),
		queueDepth: reg.Gauge("rapid_engine_queue_depth",
			"Streams accepted by RunBatch/RunRecords and not yet finished."),
		batches: reg.Counter("rapid_engine_batches_total",
			"RunBatch/RunRecords invocations."),
		cacheFills: reg.Counter("rapid_lazydfa_cache_fills_total",
			"Lazy-DFA transitions materialized on cache miss, counter tier included."),
		cacheFlushes: reg.Counter("rapid_lazydfa_cache_flushes_total",
			"Lazy-DFA whole-cache drops (now only the one performed by demotion)."),
		cacheEvictions: reg.Counter("rapid_lazydfa_cache_evictions_total",
			"Lazy-DFA single states evicted by the second-chance clock, counter tier included."),
		prefilterSkipped: reg.Counter("rapid_lazydfa_prefilter_skipped_bytes_total",
			"Input bytes skipped by the rest-state literal prefilter."),
		demotions: reg.Counter("rapid_lazydfa_demotions_total",
			"Lazy-DFA tiers (pure or counter) that demoted to the NFA bitset walk."),
	}
}

// NewEngine builds the design's batch execution engine. Options:
// WithWorkers, WithTelemetry. Unlike CompileCPU, engine construction never
// aborts on design size: each lazy tier's cache starts small and grows
// toward a 64 MiB cap (lazydfa.DefaultMaxCacheBytes) while its eviction
// rate stays high, and a tier whose states cannot fit even there demotes
// itself to the bitset walk.
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
	e := &Engine{proto: proto, reports: d.reports, workers: workers, tel: newEngineMetrics(cfg.tel)}
	e.matchers.New = func() any { return e.proto.Clone() }
	e.bufs.New = func() any { return new([]lazydfa.Report) }
	return e, nil
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

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
// events in (offset, code) order, deduplicated by (offset, code).
func (e *Engine) Run(ctx context.Context, input []byte) ([]Report, error) {
	m := e.matchers.Get().(*lazydfa.Matcher)
	defer e.matchers.Put(m)
	return e.runOn(ctx, m, input)
}

// RunBytes is Run with context.Background().
func (e *Engine) RunBytes(input []byte) ([]Report, error) {
	return e.Run(context.Background(), input)
}

func (e *Engine) runOn(ctx context.Context, m *lazydfa.Matcher, input []byte) ([]Report, error) {
	var start time.Time
	var fills0, flushes0, evictions0, skipped0, demotions0 int
	if e.tel != nil {
		start = time.Now()
		fills0, flushes0 = m.Fills(), m.Flushes()
		evictions0, skipped0, demotions0 = m.Evictions(), m.PrefilterSkipped(), m.Demotions()
	}
	bufp := e.bufs.Get().(*[]lazydfa.Report)
	defer e.bufs.Put(bufp)
	raw, err := m.RunAppend(ctx, input, (*bufp)[:0])
	*bufp = raw[:0]
	if e.tel != nil {
		e.tel.bm.record(len(input), len(raw), err, start)
		e.tel.cacheFills.Add(uint64(m.Fills() - fills0))
		e.tel.cacheFlushes.Add(uint64(m.Flushes() - flushes0))
		e.tel.cacheEvictions.Add(uint64(m.Evictions() - evictions0))
		e.tel.prefilterSkipped.Add(uint64(m.PrefilterSkipped() - skipped0))
		e.tel.demotions.Add(uint64(m.Demotions() - demotions0))
	}
	if err != nil {
		return nil, err
	}
	out := make([]Report, len(raw))
	for i, r := range raw {
		out[i] = Report{Offset: r.Offset, Code: r.Code, Site: e.reports[r.Code]}
	}
	return out, nil
}

// runPool is the engine's one worker loop: up to e.workers workers, each
// holding one pooled matcher, pull item indices 0..n-1 from a shared
// counter and run body on them until the items run out. A body error
// stops its worker, keeps the others from starting further items, cancels
// the context body runs under so items in flight stop early, and is the
// error returned (the first one wins). A single worker runs on the
// caller's goroutine under the caller's context: it has nothing in flight
// to cancel.
func (e *Engine) runPool(ctx context.Context, n int, body func(ctx context.Context, m *lazydfa.Matcher, i int) error) error {
	r := poolRun{ctx: ctx, cancel: func() {}, n: n, pool: &e.matchers, body: body}
	r.next.Store(-1)
	workers := min(e.workers, n)
	if workers <= 1 {
		r.wg.Add(1)
		r.work()
		return r.err
	}
	r.ctx, r.cancel = context.WithCancel(ctx)
	defer r.cancel()
	r.wg.Add(workers)
	work := r.work // one method value, not one allocated per go statement
	for w := 0; w < workers; w++ {
		go work()
	}
	r.wg.Wait()
	return r.err
}

// poolRun is the state the workers of one runPool call share.
type poolRun struct {
	ctx     context.Context
	cancel  context.CancelFunc
	n       int
	pool    *sync.Pool
	body    func(ctx context.Context, m *lazydfa.Matcher, i int) error
	next    atomic.Int64
	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

func (r *poolRun) work() {
	defer r.wg.Done()
	m := r.pool.Get().(*lazydfa.Matcher)
	defer r.pool.Put(m)
	for {
		i := int(r.next.Add(1))
		if i >= r.n {
			return
		}
		if err := r.body(r.ctx, m, i); err != nil {
			r.errOnce.Do(func() { r.err = err })
			r.next.Store(int64(r.n))
			r.cancel()
			return
		}
	}
}

// enqueue accounts one accepted batch of n streams on the queue-depth
// gauge. done is called as each stream finishes; leave, once the batch
// returns, takes out the streams an early error left unfinished.
func (e *Engine) enqueue(n int) (done, leave func()) {
	if e.tel == nil {
		return func() {}, func() {}
	}
	var finished atomic.Int64
	e.tel.batches.Inc()
	e.tel.queueDepth.Add(int64(n))
	done = func() {
		finished.Add(1)
		e.tel.queueDepth.Dec()
	}
	return done, func() { e.tel.queueDepth.Add(finished.Load() - int64(n)) }
}

// RunBatch shards independent streams across the engine's worker pool and
// returns one report slice per input, in input order regardless of
// completion order. The first error (or ctx cancellation) stops the
// remaining work; results for streams already completed are still
// returned alongside the error.
func (e *Engine) RunBatch(ctx context.Context, inputs [][]byte) ([][]Report, error) {
	results := make([][]Report, len(inputs))
	if len(inputs) == 0 {
		return results, ctx.Err()
	}
	done, leave := e.enqueue(len(inputs))
	defer leave()
	return results, e.runPool(ctx, len(inputs),
		func(ctx context.Context, m *lazydfa.Matcher, i int) error {
			reports, err := e.runOn(ctx, m, inputs[i])
			if err != nil {
				return fmt.Errorf("rapid: engine stream %d: %w", i, err)
			}
			results[i] = reports
			done()
			return nil
		})
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
	done, leave := e.enqueue(len(inputs))
	defer leave()
	// The body never fails, so no stream's error stops another's run.
	_ = e.runPool(ctx, len(inputs),
		func(ctx context.Context, m *lazydfa.Matcher, i int) error {
			reports, err := e.runOn(ctx, m, inputs[i])
			if err != nil {
				err = fmt.Errorf("rapid: engine stream %d: %w", i, err)
			}
			results[i] = BatchResult{Reports: reports, Err: err}
			done()
			return nil
		})
	return results
}

// RecordReports is the result of executing one record of a framed stream.
type RecordReports struct {
	// Index is the record's position in the stream.
	Index int
	// Offset is the stream offset of the record's first symbol.
	Offset int
	// Reports carries the record's report events with offsets rebased to
	// the enclosing stream, so they line up with a whole-stream run.
	Reports []Report
}

// RunRecords splits a stream framed with the reserved START_OF_INPUT
// separator (see FrameRecords) into records and executes each as an
// independent stream across the worker pool. Every record is re-framed
// with a leading and trailing separator, so designs written against the
// paper's flattened-array convention see each record exactly as they
// would in the whole stream; report offsets are rebased to stream
// coordinates. Records must be independent — automaton state does not
// carry across separators, which is the convention's intent.
func (e *Engine) RunRecords(ctx context.Context, stream []byte) ([]RecordReports, error) {
	records, offsets := SplitRecords(stream)
	framed := make([][]byte, len(records))
	for i, rec := range records {
		framed[i] = FrameRecords(rec)
	}
	results, err := e.RunBatch(ctx, framed)
	out := make([]RecordReports, len(records))
	for i := range records {
		rr := RecordReports{Index: i, Offset: offsets[i]}
		// Framed symbol k maps to stream offset offsets[i]-1+k: index 0 is
		// the record's leading separator, which sits one symbol before the
		// record in the stream.
		for _, r := range results[i] {
			r.Offset += offsets[i] - 1
			rr.Reports = append(rr.Reports, r)
		}
		out[i] = rr
	}
	return out, err
}
