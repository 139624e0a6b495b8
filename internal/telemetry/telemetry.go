// Package telemetry is the dependency-free metrics core the execution
// tiers report into: atomic counters, gauges, and fixed log-scale-bucket
// histograms, optionally labeled into families, collected in a
// concurrency-safe Registry that exports Prometheus text format and
// expvar-style JSON.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *CounterVec are no-ops, and every constructor on a
// nil *Registry returns nil. Disabled telemetry is therefore a nil
// registry threaded through the execution layers — the hot path pays a
// single pointer test per stream chunk, never per byte.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and no-ops on nil.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. The zero value is ready to use;
// all methods are safe for concurrent use and no-ops on nil.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of finite histogram buckets: powers of two
// from 1 up to 2^(histBuckets-1), then +Inf. Covers one byte to ~128 GiB
// or one microsecond to ~1.5 days without per-metric configuration.
const histBuckets = 38

// Histogram counts non-negative integer observations (bytes, counts,
// microseconds) into fixed log-scale buckets with upper bounds 1, 2, 4,
// ... 2^37, +Inf. The zero value is ready to use; all methods are safe
// for concurrent use and no-ops on nil.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := 0
	if v > 1 {
		idx = bits.Len64(uint64(v - 1)) // first i with 2^i >= v
	}
	if idx > histBuckets {
		idx = histBuckets
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketBound returns the upper bound of finite bucket i.
func BucketBound(i int) float64 { return float64(uint64(1) << uint(i)) }

// Kind classifies a registered metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// series is one labeled (or unlabeled) instance of a metric.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// metric is one registered name: its metadata plus all label series.
type metric struct {
	name   string
	help   string
	kind   Kind
	labels []string

	series map[string]*series // keyed by joined label values
	order  []string
}

func (m *metric) get(values []string) *series {
	key := strings.Join(values, "\xff")
	s, ok := m.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		switch m.kind {
		case KindCounter:
			s.c = new(Counter)
		case KindGauge:
			s.g = new(Gauge)
		case KindHistogram:
			s.h = new(Histogram)
		}
		m.series[key] = s
		m.order = append(m.order, key)
	}
	return s
}

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is the
// disabled state: its constructors return nil instruments whose methods
// no-op.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Cold paths (placement) report
// here unconditionally; the execution tiers report here only when enabled
// via their telemetry options.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric for name, creating it on first use. Re-using
// a name with a different kind or label set panics: metric identity is a
// programming contract, not runtime input.
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byName[name]
	if !ok {
		m = &metric{
			name:   name,
			help:   help,
			kind:   kind,
			labels: append([]string(nil), labels...),
			series: make(map[string]*series),
		}
		r.byName[name] = m
		r.order = append(r.order, name)
		return m
	}
	if m.kind != kind || len(m.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, m.kind, m.labels))
	}
	for i := range labels {
		if m.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with labels %v, was %v",
				name, labels, m.labels))
		}
	}
	return m
}

// Counter returns the registered unlabeled counter, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindCounter, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.get(nil).c
}

// Gauge returns the registered unlabeled gauge, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindGauge, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.get(nil).g
}

// Histogram returns the registered unlabeled histogram, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindHistogram, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.get(nil).h
}

// CounterVec is a family of counters sharing a name and label set.
type CounterVec struct {
	r *Registry
	m *metric
}

// CounterVec returns the registered counter family, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, m: r.lookup(name, help, KindCounter, labels)}
}

// With returns the family's counter for the given label values, creating
// it on first use. Returns nil on a nil family or mismatched arity.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.m.labels) {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.m.get(values).c
}

// GaugeVec is a family of gauges sharing a name and label set.
type GaugeVec struct {
	r *Registry
	m *metric
}

// GaugeVec returns the registered gauge family, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r: r, m: r.lookup(name, help, KindGauge, labels)}
}

// With returns the family's gauge for the given label values, creating it
// on first use. Returns nil on a nil family or mismatched arity.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || len(values) != len(v.m.labels) {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.m.get(values).g
}

// HistogramVec is a family of histograms sharing a name and label set.
type HistogramVec struct {
	r *Registry
	m *metric
}

// HistogramVec returns the registered histogram family, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r: r, m: r.lookup(name, help, KindHistogram, labels)}
}

// With returns the family's histogram for the given label values, creating
// it on first use. Returns nil on a nil family or mismatched arity.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || len(values) != len(v.m.labels) {
		return nil
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.m.get(values).h
}

// Label is one label key/value pair of a snapshot series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Bucket is one cumulative histogram bucket of a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"` // +Inf on the last bucket
	Count      uint64  `json:"count"`
}

// Series is one labeled instance of a metric at snapshot time.
type Series struct {
	Labels []Label `json:"labels,omitempty"`
	// Value is the counter or gauge reading.
	Value float64 `json:"value"`
	// Count, Sum, and Buckets are set for histograms.
	Count   uint64   `json:"observations,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MetricSnapshot is one metric family at snapshot time.
type MetricSnapshot struct {
	Name   string   `json:"name"`
	Help   string   `json:"help,omitempty"`
	Kind   Kind     `json:"kind"`
	Labels []string `json:"label_keys,omitempty"`
	Series []Series `json:"series"`
}

// Snapshot is a point-in-time copy of a registry's metrics, in
// registration order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot copies the registry's current state. Safe to call concurrently
// with instrument updates; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		m := r.byName[name]
		ms := MetricSnapshot{
			Name:   m.name,
			Help:   m.help,
			Kind:   m.kind,
			Labels: append([]string(nil), m.labels...),
		}
		for _, key := range m.order {
			s := m.series[key]
			out := Series{}
			for i, k := range m.labels {
				out.Labels = append(out.Labels, Label{Key: k, Value: s.labelValues[i]})
			}
			switch m.kind {
			case KindCounter:
				out.Value = float64(s.c.Value())
			case KindGauge:
				out.Value = float64(s.g.Value())
			case KindHistogram:
				out.Count = s.h.Count()
				out.Sum = s.h.Sum()
				var cum uint64
				for i := 0; i <= histBuckets; i++ {
					cum += s.h.buckets[i].Load()
					bound := math.Inf(1)
					if i < histBuckets {
						bound = BucketBound(i)
					}
					out.Buckets = append(out.Buckets, Bucket{UpperBound: bound, Count: cum})
				}
				out.Value = float64(out.Count)
			}
			ms.Series = append(ms.Series, out)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// find locates the series of name whose labels match want (as alternating
// key, value pairs in registration-label order is NOT required — matching
// is by set).
func (s *Snapshot) find(name string, labels ...string) (*Series, bool) {
	if s == nil || len(labels)%2 != 0 {
		return nil, false
	}
	want := map[string]string{}
	for i := 0; i < len(labels); i += 2 {
		want[labels[i]] = labels[i+1]
	}
	for i := range s.Metrics {
		if s.Metrics[i].Name != name {
			continue
		}
		for j := range s.Metrics[i].Series {
			se := &s.Metrics[i].Series[j]
			if len(se.Labels) != len(want) {
				continue
			}
			match := true
			for _, l := range se.Labels {
				if want[l.Key] != l.Value {
					match = false
					break
				}
			}
			if match {
				return se, true
			}
		}
	}
	return nil, false
}

// Value returns the reading of the named counter or gauge series, selected
// by alternating label key/value pairs, and whether it exists. For
// histograms it returns the observation count.
func (s *Snapshot) Value(name string, labels ...string) (float64, bool) {
	se, ok := s.find(name, labels...)
	if !ok {
		return 0, false
	}
	return se.Value, true
}

// Counter is Value for tests that want an integer reading; missing series
// read as zero.
func (s *Snapshot) Counter(name string, labels ...string) uint64 {
	v, _ := s.Value(name, labels...)
	return uint64(v)
}

// Names returns the registered metric names in registration order.
func (s *Snapshot) Names() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		out[i] = m.Name
	}
	return out
}

// sortedSeries returns series indices ordered by label values, for
// deterministic export independent of first-touch order.
func sortedSeries(ms *MetricSnapshot) []int {
	idx := make([]int, len(ms.Series))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := ms.Series[idx[a]], ms.Series[idx[b]]
		for i := range sa.Labels {
			if i >= len(sb.Labels) {
				return false
			}
			if sa.Labels[i].Value != sb.Labels[i].Value {
				return sa.Labels[i].Value < sb.Labels[i].Value
			}
		}
		return len(sa.Labels) < len(sb.Labels)
	})
	return idx
}
