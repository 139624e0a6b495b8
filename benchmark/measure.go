package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// shape is how one invocation spends its time. Each pass of a workload is a
// cold set-up, one untimed warm-up window, `windows` timed windows and a
// tear-down; the passes of the requested workloads are interleaved (A B C D,
// A B C D, …) so that a stretch of slow machine lands on every workload and
// on only part of each one's samples.
type shape struct {
	passes  int
	windows int
	window  time.Duration
}

// windowSample is one timed window of one workload.
type windowSample struct {
	ops, failed int
	rate        float64 // ops/s
	p50, p90    float64 // ms
	cpuPerOp    float64 // ms of process CPU time (user+sys) per op
	mallocs     uint64
	allocBytes  uint64
}

// passSample is one pass of one workload.
type passSample struct {
	setup    time.Duration
	windows  []windowSample
	liveHeap uint64
	wrong    int64              // wrong replies, warm-up included
	layers   map[string]float64 // traced pass only
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// runWindow lets every caller run ops back to back for d, waits for each to
// finish its last op, and accounts the window. The rate is the sum of each
// caller's ops over the time to its own last completion, so an op cut by the
// window's end does not quantize it.
func runWindow(inst *instance, callers []*caller, d time.Duration, tr *tracer) windowSample {
	var w windowSample
	from := make([]int, len(callers))
	rates := make([]float64, len(callers))
	failed := make([]int, len(callers))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range callers {
		from[i] = len(c.lat)
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			last := start
			for last.Sub(start) < d {
				root := tr.begin("client.op", "", spanRef{})
				ok := inst.op(c, root.ref())
				tr.end(root)
				now := time.Now()
				c.lat = append(c.lat, now.Sub(last))
				last = now
				if !ok {
					failed[i]++
				}
			}
			rates[i] = float64(len(c.lat)-from[i]) / last.Sub(start).Seconds()
		}(i, c)
	}
	wg.Wait()
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)

	var lat []time.Duration
	for i, c := range callers {
		lat = append(lat, c.lat[from[i]:]...)
		w.rate += rates[i]
		w.failed += failed[i]
	}
	w.ops = len(lat)
	ms := millis(lat)
	w.p50, w.p90 = quantile(ms, 0.5), quantile(ms, 0.9)
	w.cpuPerOp = float64(cpu) / 1e6 / float64(w.ops)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// runPass is one pass of one workload. tr is non-nil in the traced pass,
// which also carries a telemetry registry through every layer and derives
// the per-layer numbers from the two.
func runPass(wl workload, setup setupFunc, callers []*caller, sh shape, tr *tracer, log io.Writer) (passSample, error) {
	var p passSample
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	runtime.GC()
	start := time.Now()
	inst, err := setup(reg, tr)
	if err != nil {
		return p, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	p.setup = time.Since(start)

	runWindow(inst, callers, sh.window, nil) // warm-up: pools, connections and caches reach their steady state
	for _, c := range callers {
		c.lat = c.lat[:0]
	}
	mark, before := tr.mark(), reg.Snapshot()
	for i := 0; i < sh.windows; i++ {
		p.windows = append(p.windows, runWindow(inst, callers, sh.window, tr))
	}

	// Live heap with the engines or servers still mounted.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc

	// Tear-down waits for the servers' handlers, so after it every span of the
	// windows has ended and every count been made.
	inst.close()
	after := reg.Snapshot()
	if p.wrong = inst.fails.n.Load(); p.wrong > 0 {
		fmt.Fprintf(log, "  %s: %d wrong replies, first: %s\n", wl.name, p.wrong, inst.fails.first)
	}
	if tr == nil {
		return p, nil
	}

	if inst.layers.bank.stes == 0 {
		// The servers built the bank inside AddDesign; build it once more
		// through the compile layers' own functions to attribute it.
		if _, inst.layers.bank, err = buildBank(nil); err != nil {
			return p, err
		}
	}
	var lat []time.Duration
	for _, c := range callers {
		lat = append(lat, c.lat...)
	}
	p.layers = layerMetrics(inst, tr.since(mark), before, after, len(lat))
	p.layers["client.op_p99_ms"] = quantile(millis(lat), 0.99)
	if inst.probe != nil {
		probed, err := inst.probe()
		if err != nil {
			return p, err
		}
		for name, v := range probed {
			p.layers[name] = v
		}
	}
	return p, nil
}
