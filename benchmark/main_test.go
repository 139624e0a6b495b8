package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables the runner
// prints from in step, and inside the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []manifestMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the runner %d, the limit is %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the runner %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16)
	check("per_layer", m.PerLayer, perLayer, 128)
	setup := m.EndToEnd[0]
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 || e.Bound > setup.Bound {
			t.Errorf("%s: bound %v; want in (0, 0.25] and at most setup_s's %v", e.Name, e.Bound, setup.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", setup)
	}
	wls := workloads()
	if len(m.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(m.Workloads), len(wls))
	}
	for i, w := range m.Workloads {
		if w.Name != wls[i].name || w.Why != wls[i].why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner %q: %q", i, w, wls[i].name, wls[i].why)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestSmoke makes one traced pass of every workload with one short window,
// and checks that no op fails and that the summary line carries exactly the
// metrics BENCHMARK.json names, each once, finite and with its unit. The
// workloads run two at a time: nothing here depends on a timing.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	wls := workloads()
	if len(wls) != len(m.Workloads) {
		t.Fatalf("%d workloads for the %d of BENCHMARK.json", len(wls), len(m.Workloads))
	}
	for _, wl := range wls {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{
				workloads: []workload{wl},
				seed:      1,
				shape:     shape{passes: 1, windows: 1, window: 200 * time.Millisecond},
				trace:     true,
				traceOut:  filepath.Join(t.TempDir(), "trace.json"),
			}
			results, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r := results[0]
			if r.workload != wl.name || !r.correct() || r.attempted == 0 {
				t.Errorf("%s: attempted %d, failed %d, wrong replies %d", r.workload, r.attempted, r.failed, r.wrong)
			}
			for _, set := range []struct {
				defs []metricDef
				want []manifestMetric
			}{{endToEnd, m.EndToEnd}, {perLayer, m.PerLayer}} {
				line, ok := summary(results, set.defs)
				if !ok {
					t.Errorf("summary says not correct: %s", line)
				}
				var out struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(set.want) {
					t.Fatalf("summary %s", line)
				}
				for _, w := range set.want {
					got, ok := out.Metrics[w.Name]
					if !ok || got.Value == nil || got.Unit != w.Unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
						t.Errorf("metric %s is %+v", w.Name, got)
					}
				}
			}
			for _, e := range endToEnd {
				if r.metrics[e.name] <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", e.name, r.metrics[e.name])
				}
			}

			var trace struct{ Spans []span }
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
				t.Fatalf("trace file: %d spans, err %v", len(trace.Spans), err)
			}

			if wl.name != "gateway-mixed" {
				return
			}
			// The hit/miss sizing: a miss input cannot still be cached when the
			// walk over the pool returns to it, even if every entry were as
			// small as the cache allows, and the hot set fits many times over
			// at the entry size measured.
			if gwMissPool*gwEntryFloor <= gwCacheBytes {
				t.Errorf("miss pool of %d × %d B does not exceed the %d B cache", gwMissPool, gwEntryFloor, gwCacheBytes)
			}
			if entry := r.metrics["gateway.cache_entry_bytes"]; entry < gwEntryFloor || gwHotSet*entry > gwCacheBytes/2 {
				t.Errorf("mean cache entry %v B: hot set of %d does not fit in half of %d B", entry, gwHotSet, gwCacheBytes)
			}
			if got, want := r.metrics["gateway.cache_hit_ratio"], float64(gwHitsPerOp)/(gwHitsPerOp+gwMissesPerOp); got != want {
				t.Errorf("gateway cache hit ratio %v, want exactly %v", got, want)
			}
		})
	}
}
