package rapid

import (
	"time"

	"repro/internal/telemetry"
)

// Per-backend stream accounting, shared by every execution tier. The
// backend label carries the BackendKind name, so one scrape compares the
// tiers directly.
const (
	metricBackendStreams  = "rapid_backend_streams_total"
	metricBackendBytes    = "rapid_backend_bytes_total"
	metricBackendReports  = "rapid_backend_reports_total"
	metricBackendErrors   = "rapid_backend_errors_total"
	metricBackendDuration = "rapid_backend_stream_duration_us"
)

// backendMetrics is the resolved per-backend instrument set. A nil
// *backendMetrics is the disabled state; every method no-ops.
type backendMetrics struct {
	reg      *telemetry.Registry
	backend  string
	streams  *telemetry.Counter
	bytes    *telemetry.Counter
	reports  *telemetry.Counter
	errors   *telemetry.Counter
	duration *telemetry.Histogram
}

// newBackendMetrics resolves the backend's counter series in reg, or
// returns nil when reg is nil (telemetry disabled).
func newBackendMetrics(reg *telemetry.Registry, backend string) *backendMetrics {
	if reg == nil {
		return nil
	}
	return &backendMetrics{
		reg:     reg,
		backend: backend,
		streams: reg.CounterVec(metricBackendStreams,
			"Streams executed, by backend.", "backend").With(backend),
		bytes: reg.CounterVec(metricBackendBytes,
			"Input bytes processed, by backend.", "backend").With(backend),
		reports: reg.CounterVec(metricBackendReports,
			"Report events produced, by backend.", "backend").With(backend),
		errors: reg.CounterVec(metricBackendErrors,
			"Stream executions that returned an error, by backend.", "backend").With(backend),
		duration: reg.HistogramVec(metricBackendDuration,
			"Stream execution latency in microseconds, by backend.", "backend").With(backend),
	}
}

// start returns the wall clock for record, or the zero time when
// disabled — the caller never calls time.Now on the disabled path.
func (m *backendMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// record accounts one finished stream.
func (m *backendMetrics) record(inputBytes, reports int, err error, start time.Time) {
	if m == nil {
		return
	}
	m.streams.Inc()
	m.bytes.Add(uint64(inputBytes))
	m.reports.Add(uint64(reports))
	if err != nil {
		m.errors.Inc()
	}
	m.duration.Observe(time.Since(start).Microseconds())
}

// RegisterBackendMetrics pre-creates the per-backend stream/byte/report
// counter series for every BackendKind at zero, so a scrape taken before
// (or without) traffic on some tier still includes every tier. rapidrun's
// -metrics-addr flag calls this when it mounts the exporter.
func RegisterBackendMetrics(reg *telemetry.Registry) {
	for _, kind := range BackendKinds() {
		newBackendMetrics(reg, string(kind))
	}
}
