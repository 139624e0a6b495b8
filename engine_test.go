package rapid

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/charclass"
	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// sameReportSet compares the distinct (offset, code) sets of two report
// lists — the backend-independent observable of a stream.
func sameReportSet(a, b []Report) bool {
	return slices.Equal(Canonical(slices.Clone(a)), Canonical(slices.Clone(b)))
}

// TestEngineMatchesSimulatorOnBenchmarks is the paper-benchmark half of the
// lazy-DFA cross-check property: on all five benchmark apps the engine's
// report set equals both the reference simulator's and the fast bitset
// simulator's. Brill and MOTOMATA contain counters, so this also exercises
// the counter tier on real designs.
func TestEngineMatchesSimulatorOnBenchmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(b.DefaultInstances)
			prog, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			design, err := prog.Compile(args...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := design.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			runner, err := design.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			input := b.Input(rng, 2048)
			want, err := design.RunBytes(input) // reference simulator
			if err != nil {
				t.Fatal(err)
			}
			if !sameReportSet(mustRun(t, runner, input), want) {
				t.Fatalf("fast simulator diverged from reference")
			}
			got, err := eng.Run(context.Background(), input)
			if err != nil {
				t.Fatal(err)
			}
			if !sameReportSet(got, want) {
				t.Fatalf("engine report set %v != simulator %v", got, want)
			}
		})
	}
}

// TestEngineRunBatchOrder checks RunBatch returns results in input order,
// identical to stream-at-a-time execution, across a multi-worker pool.
func TestEngineRunBatchOrder(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if eng.workers != 8 {
		t.Fatalf("workers = %d", eng.workers)
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]byte, 37)
	for i := range inputs {
		in := make([]byte, 100+rng.Intn(400))
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	got, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(got), len(inputs))
	}
	for i, input := range inputs {
		want, err := eng.Run(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReportSet(got[i], want) {
			t.Fatalf("stream %d out of order or wrong: %v != %v", i, got[i], want)
		}
	}
	// Repeated batches on warm pools stay stable.
	again, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !sameReportSet(got[i], again[i]) {
			t.Fatalf("warm batch diverged on stream %d", i)
		}
	}
}

// TestEngineRunBatchCancel checks cancellation surfaces an error.
func TestEngineRunBatchCancel(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = make([]byte, 1<<17)
	}
	if _, err := eng.RunBatch(ctx, inputs); err == nil {
		t.Fatal("cancelled batch should error")
	}
}

// TestEngineGroupReportArena checks the per-group report allocation: each
// stream's reports are capped at their own length, so appending to one
// stream's slice never writes into its neighbour's.
func TestEngineGroupReportArena(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = []byte("x" + strings.Repeat("abc", i+1))
	}
	res := eng.RunBatchSettled(context.Background(), inputs)
	for i, r := range res {
		if r.Err != nil || len(r.Reports) != i+1 || cap(r.Reports) != len(r.Reports) {
			t.Fatalf("stream %d: %d reports, cap %d, err %v; want %d, cap == len",
				i, len(r.Reports), cap(r.Reports), r.Err, i+1)
		}
	}
	second := append([]Report(nil), res[1].Reports...)
	_ = append(res[0].Reports, Report{Offset: -1, Code: -1})
	if !reflect.DeepEqual(res[1].Reports, second) {
		t.Fatalf("append to stream 0 changed stream 1: %v, want %v", res[1].Reports, second)
	}
}

// TestEngineReportSites checks the engine's report codes resolve to sites
// like the other backends'.
func TestEngineReportSites(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("ab"))
	eng, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.Run(context.Background(), []byte("xabx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 || design.Site(reports[0].Code) == "" {
		t.Fatalf("engine report codes have no site: %v", reports)
	}
}

// TestEngineCounterDesign checks an all-counter design (no lazy tier) still
// runs through the engine, including batches.
func TestEngineCounterDesign(t *testing.T) {
	const src = `
network (String s) {
  Counter cnt;
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    cnt.count();
    cnt >= 2;
    report;
  }
}`
	design := mustDesign(t, src, Str("ab"))
	eng, err := design.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tiers() != "counter-dfa" {
		t.Fatalf("tiers = %q, want counter-dfa", eng.Tiers())
	}
	input := []byte("abxabxab")
	want, err := design.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if !sameReportSet(got, want) {
		t.Fatalf("engine %v != simulator %v", got, want)
	}
}

// BenchmarkEngineBatch measures multi-stream scaling: the same byte volume
// through Engine.Run one stream at a time versus RunBatch across the
// worker pool. On multi-core hosts the batch path approaches
// workers × single-stream throughput; divide the workers=8 MB/s by the
// workers=1 MB/s for the measured ratio.
func BenchmarkEngineBatch(b *testing.B) {
	design, err := mustProgramBench(slidingSrc).Compile(Str("abc"))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const streams, streamBytes = 32, 1 << 15
	inputs := make([][]byte, streams)
	for i := range inputs {
		in := make([]byte, streamBytes)
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	for _, workers := range []int{1, 8} {
		eng, err := design.NewEngine(WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(streams * streamBytes))
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunBatch(context.Background(), inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustProgramBench(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// TestEngineRunBatchSettledParity checks the settled batch path returns
// the same per-stream reports as RunBatch, with nil per-stream errors.
func TestEngineRunBatchSettledParity(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]byte, 23)
	for i := range inputs {
		in := make([]byte, 50+rng.Intn(200))
		for j := range in {
			in[j] = byte('a' + rng.Intn(3))
		}
		inputs[i] = in
	}
	want, err := eng.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.RunBatchSettled(context.Background(), inputs)
	if len(got) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(got), len(inputs))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("stream %d: %v", i, got[i].Err)
		}
		if !sameReportSet(got[i].Reports, want[i]) {
			t.Fatalf("stream %d diverged from RunBatch", i)
		}
	}
	if res := eng.RunBatchSettled(context.Background(), nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// cancelAfter is a context whose Err turns to context.Canceled after n
// checks, so a cancel lands in the middle of a walk.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEngineRunBatchSettledCancelMidGroup: a cancel that lands while one
// worker walks a group of four streams interleaved settles every stream of
// the group with the context's error, naming its own index.
func TestEngineRunBatchSettledCancelMidGroup(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 4)
	for i := range inputs {
		inputs[i] = repeatStream("xabcx", 1<<12)
	}
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(2)
	for i, r := range eng.RunBatchSettled(ctx, inputs) {
		if !errors.Is(r.Err, context.Canceled) || !strings.Contains(r.Err.Error(), fmt.Sprintf("stream %d", i)) {
			t.Errorf("stream %d settled with %v, want its own context.Canceled", i, r.Err)
		}
	}
}

// TestWarmBatchSettledAllocs: a warm RunBatchSettled of 16 × 1 KiB
// MOTOMATA-4 streams, the benchmark's scan-counter batch, allocates the
// results, the pool's shared state and one report slice per lane group,
// and nothing per lane or per stream: 7, against 19 with one report slice
// per stream.
func TestWarmBatchSettledAllocs(t *testing.T) {
	const bound = 8
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random, so matcher clones come back cold")
	}
	b := bench.Motomata()
	src, args := b.RAPID(4)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := design.NewEngine(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = b.Input(rng, 1<<10)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		eng.RunBatchSettled(ctx, inputs)
	}
	if allocs := testing.AllocsPerRun(20, func() { eng.RunBatchSettled(ctx, inputs) }); allocs > bound {
		t.Errorf("warm RunBatchSettled of 16 × 1 KiB allocated %.1f times, bound %d", allocs, bound)
	}
}

// TestEngineRunBatchSettledCancel checks cancellation settles per-stream
// errors carrying the stream index instead of aborting the whole batch.
func TestEngineRunBatchSettledCancel(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	eng, err := design.NewEngine(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = make([]byte, 1<<17)
	}
	results := eng.RunBatchSettled(ctx, inputs)
	if len(results) != len(inputs) {
		t.Fatalf("results = %d, want %d", len(results), len(inputs))
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("stream %d settled without an error under a cancelled context", i)
		}
		if want := fmt.Sprintf("stream %d", i); !strings.Contains(r.Err.Error(), want) {
			t.Fatalf("stream %d error %q does not name its stream", i, r.Err)
		}
	}
}

// TestWarmRunAllocs: a warm 64 KiB arm-32 Run on an engine of two workers
// allocates its report slice and nothing else, while a parked helper walks
// spans of it: the span state is the matcher's and the hand-off is a
// channel send. Every allocation in the process counts, the helper's too.
//
// What sync.Pool does is left out, not the engine's path. The GC is off
// from the warm-up on, since a GC empties the pool. A run in which the pool
// built a clone, or a clone still learned states (a cold walk), is not
// counted. As the goroutines move between Ps, a warm clone can also take a
// role it has not had before, such as splitting the stream, and size that
// role's scratch once, or the pool grow its chains: so a round of 50
// counted runs may allocate 16 times more than 1 apiece in all, and a
// round that allocates more is measured again, up to three rounds. A path
// that allocates on every run fails all three. A round goes on, up to 500
// runs, until a helper has walked a span: on a loaded host the caller may
// finish every span before its helper is scheduled.
func TestWarmRunAllocs(t *testing.T) {
	const runs, bound, slack = 50, 1, 16
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random, so matcher clones come back cold")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("a helper needs a second core")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	b := bench.ARM()
	src, args := b.RAPID(32)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng, err := design.NewEngine(WithWorkers(2), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var clones atomic.Int64
	eng.matchers.New = func() any { clones.Add(1); return eng.proto.Clone() }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	input := b.Input(rand.New(rand.NewSource(26)), 64<<10)
	ctx := context.Background()
	for i := 0; i < 200; i++ { // both clones walk every span and learn its states
		eng.Run(ctx, input)
	}
	spans := reg.Counter("rapid_engine_span_streams_total", "")
	fills := reg.Counter("rapid_lazydfa_cache_fills_total", "")
	var before, after runtime.MemStats
	for round := 1; ; round++ {
		helped0 := spans.Value()
		var counted, extra uint64
		for i := 0; i < 500 && (counted < runs || spans.Value() == helped0); i++ {
			clones0, fills0 := clones.Load(), fills.Value()
			runtime.ReadMemStats(&before)
			if _, err := eng.Run(ctx, input); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if after.NumGC != before.NumGC || clones.Load() != clones0 || fills.Value() != fills0 || counted == runs {
				continue
			}
			counted++
			if n := after.Mallocs - before.Mallocs; n > bound {
				extra += n - bound
				t.Logf("round %d: warm 64 KiB Run %d allocated %d times", round, i, n)
			}
		}
		helped := spans.Value() - helped0
		t.Logf("round %d: %d runs counted, %d allocations over 1 apiece; a helper walked spans of %d runs", round, counted, extra, helped)
		if extra <= slack && counted == runs && helped > 0 {
			return
		}
		if round == 3 {
			t.Fatalf("three rounds failed, the last with %d counted warm 64 KiB Runs (want %d) allocating %d times more than %d apiece (slack %d), a helper walking spans of %d",
				counted, runs, extra, bound, slack, helped)
		}
	}
}

// hybridDesign has both lazy-DFA tiers: sliding words (pure components)
// beside counters that count one letter and reset on another.
func hybridDesign() *Design {
	n := automata.NewNetwork("hybrid")
	for code, word := range []string{"abc", "bca", "cc"} {
		prev := n.AddSTE(charclass.Single(word[0]), automata.StartAllInput)
		for _, c := range []byte(word[1:]) {
			next := n.AddSTE(charclass.Single(c), automata.StartNone)
			n.Connect(prev, next, automata.PortIn)
			prev = next
		}
		n.SetReport(prev, code)
	}
	for i := 0; i < 3; i++ {
		ctr := n.AddCounter(4 + i)
		n.Connect(n.AddSTE(charclass.Single(byte('a'+i)), automata.StartAllInput), ctr, automata.PortCount)
		n.Connect(n.AddSTE(charclass.Single(byte('d'+i)), automata.StartAllInput), ctr, automata.PortReset)
		n.SetReport(ctr, 10+i)
	}
	return &Design{net: n}
}

// TestEngineSplitHammer: four goroutines share one engine of eight workers
// whose matchers have a fixed 7-state cache, and run lone long streams
// through Run and RunBatchSettled and batches of three, some under
// contexts that cancel mid-walk. Every run that finishes equals an
// unsplit engine's, and every cancelled one is a prefix of it with the
// context's error. Under -race it checks the span state's hand-offs.
func TestEngineSplitHammer(t *testing.T) {
	design := hybridDesign()
	reg := telemetry.NewRegistry()
	eng, err := design.NewEngine(WithWorkers(8), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tiers() != "lazy-dfa+counter-dfa" {
		t.Fatalf("tiers %q, want both", eng.Tiers())
	}
	if eng.proto, err = lazydfa.New(design.net, &lazydfa.Options{MaxCachedStates: 7}); err != nil {
		t.Fatal(err)
	}
	ref, err := design.NewEngine(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	inputs, wants := make([][]byte, 8), make([][]Report, 8)
	for i := range inputs {
		inputs[i] = make([]byte, 32<<10+rng.Intn(48<<10))
		for j := range inputs[i] {
			inputs[i][j] = byte('a' + rng.Intn(6))
		}
		if wants[i], err = ref.Run(context.Background(), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(got []Report, err error, want []Report) {
		switch {
		case err == nil && !slices.Equal(got, want):
			t.Errorf("%d reports, unsplit engine %d", len(got), len(want))
		case err != nil && (!errors.Is(err, context.Canceled) || !slices.Equal(got, want[:min(len(got), len(want))])):
			t.Errorf("cancelled run: err %v, %d reports not a prefix of %d", err, len(got), len(want))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				i := rng.Intn(len(inputs) - 2)
				var ctx context.Context = context.Background()
				if rng.Intn(3) == 0 {
					c := &cancelAfter{Context: ctx}
					c.n.Store(int64(rng.Intn(24)))
					ctx = c
				}
				switch rng.Intn(3) {
				case 0:
					got, err := eng.Run(ctx, inputs[i])
					check(got, err, wants[i])
				case 1:
					r := eng.RunBatchSettled(ctx, inputs[i:i+1])
					check(r[0].Reports, r[0].Err, wants[i])
				default:
					for k, r := range eng.RunBatchSettled(ctx, inputs[i:i+3]) {
						check(r.Reports, r.Err, wants[i+k])
					}
				}
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()
	spans := reg.Counter("rapid_engine_span_streams_total", "")
	t.Logf("%d lone streams had a helper", spans.Value())
	// Quiet, the engine has idle workers: a lone long stream splits, and on
	// two cores its helper soon walks a span.
	for i := 0; spans.Value() == 0 && runtime.GOMAXPROCS(0) > 1; i++ {
		if i == 100 {
			t.Fatal("no helper walked a span")
		}
		got, err := eng.Run(context.Background(), inputs[0])
		check(got, err, wants[0])
	}
}
