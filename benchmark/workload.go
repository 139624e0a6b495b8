package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rapid "repro"
	"repro/internal/telemetry"
)

// workload is one closed-loop traffic shape over the bank. Closed loop: a
// caller starts its next op only when the previous reply has been checked,
// as a service calling a matcher does.
type workload struct {
	name    string
	why     string
	callers int
	// prepare draws the input pools from the seed and computes their oracle.
	// It runs once per invocation, before any timed phase.
	prepare func(seed int64) (setupFunc, error)
}

// setupFunc is the timed cold set-up of one pass: RAPID source → parse →
// compile → place → engines or mounted servers → a first pass over the
// input pools, which fills the lazy-DFA caches and checks every pool input
// against the oracle. reg and tr are nil except in the traced pass.
type setupFunc func(reg *telemetry.Registry, tr *tracer) (*instance, error)

// instance is a workload set up and ready to take ops.
type instance struct {
	// op runs one op for a caller and reports whether every reply in it was
	// correct. root is the op's span, the parent of the spans op records.
	op    func(c *caller, root spanRef) bool
	close func()
	// probe measures, once and outside the timed windows of the traced pass,
	// the per-layer numbers that are no part of the workload's op; nil for
	// workloads that do not call an engine directly.
	probe  func() (map[string]float64, error)
	fails  *failures
	layers setupLayers
}

// setupLayers attributes the set-up time.
type setupLayers struct {
	bank               bankLayers
	warm, mount, ready time.Duration
}

// caller is one closed-loop client. seq counts its ops over the whole run,
// so the pools keep cycling from pass to pass.
type caller struct {
	id  int
	seq int
	lat []time.Duration // latency of every timed op, preallocated
}

// failures counts failed checks and keeps the first one's description.
type failures struct {
	n     atomic.Int64
	once  sync.Once
	first string
}

func (f *failures) failf(format string, args ...any) bool {
	f.n.Add(1)
	f.once.Do(func() { f.first = fmt.Sprintf(format, args...) })
	return false
}

// err describes the wrong replies of a first pass; nil when there were none.
func (f *failures) err() error {
	if n := f.n.Load(); n > 0 {
		return fmt.Errorf("first pass over the pools: %d wrong replies, first: %s", n, f.first)
	}
	return nil
}

func workloads() []workload {
	return []workload{
		{
			name:    "scan-pure",
			why:     "engine only, on counter-free designs: the lazy-DFA and prefilter kernel is the op, serve and gateway do nothing",
			callers: 1,
			// Brill is probed, not part of the op: it reports once per 8 bytes
			// of input, so its time is the allocation of report slices, which
			// a busy neighbour slows by a third for minutes (README.md).
			prepare: prepareScan(8, 4<<10, 64<<10,
				[]scanSpec{{"exact-32", 64}, {"arm-32", 64}}, []scanSpec{{"brill", 8}}),
		},
		{
			name:    "scan-counter",
			why:     "engine only, on counter designs: forces the hybrid bitset walk that the lazy-DFA and lane kernels bypass",
			callers: 1,
			prepare: prepareScan(32, 1<<10, 16<<10,
				[]scanSpec{{"motomata-1", 16}, {"motomata-4", 16}}, nil),
		},
		{
			name:    "serve-small",
			why:     "512 B matches over loopback HTTP: JSON, base64, admission, the batch window and net/http are the op, the kernel is microseconds",
			callers: 2,
			prepare: prepareServeSmall,
		},
		{
			name:    "gateway-mixed",
			why:     "sessions through the gateway to two replicas: cache hits beside misses that store and evict, plus a per-record NDJSON stream",
			callers: 2,
			prepare: prepareGatewayMixed,
		},
	}
}

// The four small designs the HTTP workloads rotate over.
var smallDesigns = []string{"exact-1", "arm-1", "gappy-1", "motomata-1"}

type scanSpec struct {
	design string
	batch  int // streams per RunBatchSettled call
}

// scanDesign is one design's pools. Batch k is streams[k:k+batch], so pool
// batches share batch+pool-1 streams.
type scanDesign struct {
	scanSpec
	streams []item
	singles []item
	batches [][][]byte
}

func newScanDesign(s scanSpec, rng *rand.Rand, pool, streamSize, singleSize int) (*scanDesign, error) {
	spec := specByName(s.design)
	sd := &scanDesign{scanSpec: s}
	var err error
	if sd.streams, err = items(spec, draw(spec, rng, s.batch+pool-1, streamSize)); err != nil {
		return nil, err
	}
	if sd.singles, err = items(spec, draw(spec, rng, pool, singleSize)); err != nil {
		return nil, err
	}
	inputs := make([][]byte, len(sd.streams))
	for j, it := range sd.streams {
		inputs[j] = it.input
	}
	for k := 0; k < pool; k++ {
		sd.batches = append(sd.batches, inputs[k:k+s.batch])
	}
	return sd, nil
}

// run is the design's part of an op: one RunBatchSettled over batch k and
// one Run of single k, each checked against the oracle.
func (sd *scanDesign) run(eng *rapid.Engine, k int, tr *tracer, root spanRef, fails *failures) bool {
	ctx := context.Background()
	ok := true
	s := tr.begin("engine.batch", sd.design, root)
	results := eng.RunBatchSettled(ctx, sd.batches[k])
	tr.end(s)
	for i, r := range results {
		if r.Err != nil || !sd.streams[k+i].want.matches(r.Reports, 0) {
			ok = fails.failf("%s batch %d stream %d: %d reports, want %d (err %v)",
				sd.design, k, i, len(r.Reports), sd.streams[k+i].want.n, r.Err)
		}
	}
	s = tr.begin("engine.single", sd.design, root)
	reports, err := eng.Run(ctx, sd.singles[k].input)
	tr.end(s)
	if err != nil || !sd.singles[k].want.matches(reports, 0) {
		ok = fails.failf("%s single %d: %d reports, want %d (err %v)",
			sd.design, k, len(reports), sd.singles[k].want.n, err)
	}
	return ok
}

// probePool is the number of inputs a probed design is run over: the
// reference simulator that checks them runs Brill at 0.7 MB/s.
const probePool = 8

// prepareScan builds a workload whose op is, for each design of specs in
// turn, one RunBatchSettled over batch streams of streamSize bytes and then
// one Run of a single stream of singleSize bytes: batch and single-stream
// use of one engine side by side, so a gain for one that costs the other
// shows. Each design cycles through pool distinct batches and singles. The
// designs of probed are run the same way over probePool inputs, but only by
// the traced pass's probe.
func prepareScan(pool, streamSize, singleSize int, specs, probed []scanSpec) func(int64) (setupFunc, error) {
	return func(seed int64) (setupFunc, error) {
		rng := rand.New(rand.NewSource(seed))
		designs := make([]*scanDesign, len(specs))
		for i, s := range specs {
			var err error
			if designs[i], err = newScanDesign(s, rng, pool, streamSize, singleSize); err != nil {
				return nil, err
			}
		}
		return func(reg *telemetry.Registry, tr *tracer) (*instance, error) {
			bank, layers, err := buildBank(reg)
			if err != nil {
				return nil, err
			}
			inst := &instance{fails: &failures{}, close: func() {}}
			inst.layers.bank = layers
			inst.op = func(c *caller, root spanRef) bool {
				k := c.seq % pool
				c.seq++
				ok := true
				for _, sd := range designs {
					ok = sd.run(bank[sd.design].engine, k, tr, root, inst.fails) && ok
				}
				return ok
			}
			inst.probe = func() (map[string]float64, error) {
				out := make(map[string]float64)
				d, err := deviceSingles(bank[designs[0].design].design, designs[0])
				if err != nil {
					return nil, err
				}
				out["device.single_ms"] = float64(d) / 1e6
				for _, s := range probed {
					sd, err := newScanDesign(s, rand.New(rand.NewSource(seed)), probePool, streamSize, singleSize)
					if err != nil {
						return nil, err
					}
					if err := probeDesign(sd, bank[s.design].engine, out); err != nil {
						return nil, err
					}
				}
				return out, nil
			}
			start := time.Now()
			if err := firstPass(inst, 1, pool); err != nil {
				return nil, err
			}
			inst.layers.warm = time.Since(start)
			return inst, nil
		}, nil
	}
}

// deviceSingles times the device backend on a design's single streams.
func deviceSingles(d *rapid.Design, sd *scanDesign) (time.Duration, error) {
	dev, err := d.Backend(rapid.BackendDevice)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, it := range sd.singles {
		reports, err := dev.Match(context.Background(), it.input)
		if err != nil || !it.want.matches(reports, 0) {
			return 0, fmt.Errorf("device backend on %s differs from the oracle (err %v)", sd.design, err)
		}
	}
	return time.Since(start) / time.Duration(len(sd.singles)), nil
}

// probeDesign runs a design's pool probeRounds times to fill the caches of
// the engine's matchers and as many times timed, and adds the mean time of a
// batch and of a single to out.
func probeDesign(sd *scanDesign, eng *rapid.Engine, out map[string]float64) error {
	const probeRounds = 5
	fails := &failures{}
	var tr *tracer // nil while the caches fill
	for round := 0; round < 2*probeRounds; round++ {
		if round == probeRounds {
			tr = &tracer{epoch: time.Now()}
		}
		for k := range sd.singles {
			sd.run(eng, k, tr, spanRef{}, fails)
		}
	}
	if err := fails.err(); err != nil {
		return err
	}
	for _, s := range tr.spans { // named engine.batch and engine.single
		out["engine."+sd.design+strings.TrimPrefix(s.Name, "engine")+"_ms"] += s.ms() / float64(probeRounds*len(sd.singles))
	}
	return nil
}

// firstPass runs ops untimed opsPerCaller times on each of n callers, which
// is sized to touch every pool input once, and fails on the first wrong
// reply. The callers are throwaway: the run's own callers start at seq 0.
func firstPass(inst *instance, n, opsPerCaller int) error {
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; i < opsPerCaller; i++ {
				inst.op(c, spanRef{})
			}
		}(&caller{id: id})
	}
	wg.Wait()
	return inst.fails.err()
}
