package telemetry

import (
	"sync"
	"time"
)

// SpanEvent is one finished span delivered to the registry's span hooks:
// a named lifecycle event (one stream served, one failover decision) with
// its labels, wall-clock bounds, and outcome.
type SpanEvent struct {
	Name     string
	Labels   []Label
	Start    time.Time
	Duration time.Duration
	Err      error
}

// OnSpan registers fn to receive every finished span. Hooks run
// synchronously on the goroutine ending the span and must be fast; nil
// registries and nil fns are no-ops.
func (r *Registry) OnSpan(fn func(SpanEvent)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.spanFns = append(r.spanFns, fn)
	r.mu.Unlock()
}

// Span is an in-flight lifecycle event. A nil span (from a nil registry)
// no-ops, so instrumented code never branches on enablement.
type Span struct {
	r      *Registry
	name   string
	labels []Label
	start  time.Time

	mu  sync.Mutex
	err error
}

// StartSpan opens a span. On End the span's duration lands in the
// registry's span_duration_us histogram family and spans_total counter
// family (labeled by span name and status) and is delivered to OnSpan
// hooks. Returns nil on a nil registry.
func (r *Registry) StartSpan(name string, labels ...Label) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, labels: labels, start: time.Now()}
}

// Fail records the span's outcome as err (the last non-nil error wins).
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// End closes the span, recording its duration and outcome.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	status := "ok"
	if s.err != nil {
		status = "error"
	}
	s.r.CounterVec("rapid_spans_total",
		"Finished lifecycle spans by name and status.", "span", "status").
		With(s.name, status).Inc()
	s.r.HistogramVec("rapid_span_duration_us",
		"Span durations in microseconds by name.", "span").
		With(s.name).Observe(d.Microseconds())
	s.r.mu.Lock()
	fns := append([]func(SpanEvent){}, s.r.spanFns...)
	s.r.mu.Unlock()
	if len(fns) == 0 {
		return
	}
	ev := SpanEvent{Name: s.name, Labels: s.labels, Start: s.start, Duration: d, Err: s.err}
	for _, fn := range fns {
		fn(ev)
	}
}
