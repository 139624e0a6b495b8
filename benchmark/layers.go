package main

import (
	"time"

	"repro/internal/telemetry"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system sees, the same eight for
// every workload. bound is both the allowed worsening before a regression
// and the agreement asked of two sets of runs of the same code. Each bound is
// the issue's, widened where three times the widest spread measured between
// runs of the same code exceeds it (README.md has the measurements): all five
// timings reach the contract's cap of a quarter that way, because the speed
// of the machine itself moves by a fifth for a minute at a time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.08},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// The designs whose engine calls the scan workloads time one by one.
var scanDesigns = []string{"exact-32", "arm-32", "brill", "motomata-1", "motomata-4"}

// perLayer lists the per-layer metrics of the traced run. Layer names are
// module names. A layer a workload does not reach reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Set-up, by compile layer, summed over the bank.
		{name: "lang.parse_ms", unit: "ms", better: "lower"},
		{name: "codegen.compile_ms", unit: "ms", better: "lower"},
		{name: "place.place_ms", unit: "ms", better: "lower"},
		{name: "engine.new_ms", unit: "ms", better: "lower"},
		{name: "codegen.bank_stes", unit: "count", better: "lower"},
		{name: "place.shapes", unit: "count", better: "lower"},
		{name: "engine.warm_ms", unit: "ms", better: "lower"},
		{name: "serve.mount_ms", unit: "ms", better: "lower"},
		{name: "gateway.ready_ms", unit: "ms", better: "lower"},
	}
	for _, d := range scanDesigns {
		defs = append(defs,
			metricDef{name: "engine." + d + ".batch_ms", unit: "ms", better: "lower"},
			metricDef{name: "engine." + d + ".single_ms", unit: "ms", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "lazydfa.fills_per_op", unit: "count", better: "lower"},
		{name: "lazydfa.evictions_per_op", unit: "count", better: "lower"},
		{name: "lazydfa.prefilter_skipped_share", unit: "share", better: "higher"},
		{name: "lazydfa.demotions", unit: "count", better: "lower"},
		{name: "engine.lane_streams_share", unit: "share", better: "higher"},
		{name: "engine.reports_per_op", unit: "count", better: "lower"},
		{name: "device.single_ms", unit: "ms", better: "lower"},
		{name: "client.self_ms", unit: "ms", better: "lower"},
		{name: "net.hop_ms", unit: "ms", better: "lower"},
		{name: "serve.handler_ms", unit: "ms", better: "lower"},
		{name: "serve.codec_ms", unit: "ms", better: "lower"},
		{name: "serve.wait_ms", unit: "ms", better: "lower"},
		{name: "engine.stream_ms", unit: "ms", better: "lower"},
		{name: "serve.batch_size_mean", unit: "count", better: "higher"},
		{name: "serve.rejections_per_op", unit: "count", better: "lower"},
		{name: "gateway.hit_ms", unit: "ms", better: "lower"},
		{name: "gateway.miss_self_ms", unit: "ms", better: "lower"},
		{name: "gateway.stream_self_ms", unit: "ms", better: "lower"},
		{name: "gateway.cache_hit_ratio", unit: "share", better: "higher"},
		{name: "gateway.cache_evictions_per_op", unit: "count", better: "lower"},
		{name: "gateway.cache_entry_bytes", unit: "B", better: "lower"},
		{name: "gateway.failovers_per_op", unit: "count", better: "lower"},
		{name: "client.hit_p50_ms", unit: "ms", better: "lower"},
		{name: "client.miss_p50_ms", unit: "ms", better: "lower"},
		{name: "client.stream_p50_ms", unit: "ms", better: "lower"},
		{name: "client.op_p99_ms", unit: "ms", better: "lower"},
		{name: "trace.overhead_share", unit: "share", better: "lower"},
	}...)
}()

// total sums the series of one metric family whose labels include every
// key/value pair given: value for counters and gauges, observation count and
// sum for histograms.
func total(s *telemetry.Snapshot, name string, kv ...string) (value float64, count, sum uint64) {
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
	series:
		for _, se := range m.Series {
			for i := 0; i+1 < len(kv); i += 2 {
				found := false
				for _, l := range se.Labels {
					found = found || (l.Key == kv[i] && l.Value == kv[i+1])
				}
				if !found {
					continue series
				}
			}
			value += se.Value
			count += se.Count
			sum += se.Sum
		}
	}
	return value, count, sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer numbers of one traced pass from the
// spans of its timed windows, the change in the telemetry registry over
// those windows, and the set-up attribution. ops is the number of timed ops.
func layerMetrics(inst *instance, spans []span, before, after *telemetry.Snapshot, ops int) map[string]float64 {
	out := make(map[string]float64)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	l := inst.layers
	out["lang.parse_ms"] = ms(l.bank.parse)
	out["codegen.compile_ms"] = ms(l.bank.compile)
	out["place.place_ms"] = ms(l.bank.place)
	out["engine.new_ms"] = ms(l.bank.engine)
	out["codegen.bank_stes"] = float64(l.bank.stes)
	out["place.shapes"] = float64(l.bank.shapes)
	out["engine.warm_ms"] = ms(l.warm)
	out["serve.mount_ms"] = ms(l.mount)
	out["gateway.ready_ms"] = ms(l.ready)

	// Spans: a span's self time is its duration minus its children's.
	children := make(map[uint64]float64)
	for _, s := range spans {
		children[s.Parent] += s.ms()
	}
	type acc struct {
		sum  float64
		n    int
		each []float64
	}
	groups := make(map[string]*acc)
	add := func(key string, v float64) {
		a := groups[key]
		if a == nil {
			a = &acc{}
			groups[key] = a
		}
		a.sum += v
		a.n++
		a.each = append(a.each, v)
	}
	for _, s := range spans {
		self := s.ms() - children[s.ID]
		switch s.Name {
		case "engine.batch", "engine.single":
			add(s.Name+"."+s.Kind, s.ms())
		case "client.request":
			add("client.self", self)
			add("client."+s.Kind, s.ms())
		case "client.roundtrip", "gateway.upstream":
			if s.Kind != "stream" { // a streamed reply overlaps the handler that writes it
				add("net.hop", self)
			}
		case "gateway.handler":
			if s.Kind == "hit" {
				add("gateway.hit", s.ms())
			} else {
				add("gateway."+s.Kind+"_self", self)
			}
		case "serve.handler":
			add("serve.handler", s.ms())
		}
	}
	mean := func(key string) float64 {
		if a := groups[key]; a != nil {
			return a.sum / float64(a.n)
		}
		return 0
	}
	median := func(key string) float64 {
		if a := groups[key]; a != nil {
			return quantile(a.each, 0.5)
		}
		return 0
	}
	for _, d := range scanDesigns {
		out["engine."+d+".batch_ms"] = mean("engine.batch." + d)
		out["engine."+d+".single_ms"] = mean("engine.single." + d)
	}
	out["client.self_ms"] = mean("client.self")
	out["net.hop_ms"] = mean("net.hop")
	out["gateway.hit_ms"] = mean("gateway.hit")
	out["gateway.miss_self_ms"] = mean("gateway.miss_self")
	out["gateway.stream_self_ms"] = mean("gateway.stream_self")
	out["client.hit_p50_ms"] = median("client.hit")
	out["client.miss_p50_ms"] = median("client.miss")
	out["client.stream_p50_ms"] = median("client.stream")

	// Registry: every count is the change over the timed windows.
	delta := func(name string, kv ...string) (float64, float64, float64) {
		v1, c1, s1 := total(after, name, kv...)
		v0, c0, s0 := total(before, name, kv...)
		return v1 - v0, float64(c1 - c0), float64(s1 - s0)
	}
	count := func(name string, kv ...string) float64 { v, _, _ := delta(name, kv...); return v }
	meanMS := func(name string, kv ...string) float64 { // histograms observe microseconds
		_, n, sum := delta(name, kv...)
		return ratio(sum, n) / 1e3
	}
	n := float64(ops)
	lazy := []string{"backend", "lazy-dfa"}
	out["lazydfa.fills_per_op"] = count("rapid_lazydfa_cache_fills_total") / n
	out["lazydfa.evictions_per_op"] = count("rapid_lazydfa_cache_evictions_total") / n
	out["lazydfa.prefilter_skipped_share"] = ratio(count("rapid_lazydfa_prefilter_skipped_bytes_total"), count("rapid_backend_bytes_total", lazy...))
	out["lazydfa.demotions"], _, _ = total(after, "rapid_lazydfa_demotions_total") // sticky: set-up counts too
	out["engine.lane_streams_share"] = ratio(count("rapid_engine_lane_streams_total"), count("rapid_backend_streams_total", lazy...))
	out["engine.reports_per_op"] = count("rapid_backend_reports_total", lazy...) / n
	out["engine.stream_ms"] = meanMS("rapid_backend_stream_duration_us", lazy...)

	// serve: per admitted job, which is a /v1/match request or one record
	// of a stream. handler − (admission → completion) is the codec around
	// the queue; (admission → completion) − engine run is the wait in it.
	_, jobs, _ := delta("rapid_serve_request_duration_us")
	request := meanMS("rapid_serve_request_duration_us")
	if a := groups["serve.handler"]; a != nil {
		out["serve.handler_ms"] = ratio(a.sum, jobs)
		out["serve.codec_ms"] = out["serve.handler_ms"] - request
		out["serve.wait_ms"] = request - out["engine.stream_ms"]
	}
	_, batches, batched := delta("rapid_serve_batch_size")
	out["serve.batch_size_mean"] = ratio(batched, batches)
	out["serve.rejections_per_op"] = count("rapid_serve_admission_rejections_total") / n

	hits, misses := count("rapid_gateway_cache_hits_total"), count("rapid_gateway_cache_misses_total")
	out["gateway.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["gateway.cache_evictions_per_op"] = count("rapid_gateway_cache_evictions_total") / n
	cacheBytes, _, _ := total(after, "rapid_gateway_cache_bytes")
	cacheEntries, _, _ := total(after, "rapid_gateway_cache_entries")
	out["gateway.cache_entry_bytes"] = ratio(cacheBytes, cacheEntries)
	out["gateway.failovers_per_op"] = count("rapid_gateway_failovers_total") / n
	return out
}
