package rapid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// slidingSrc matches its word anywhere in the stream, so long synthetic
// streams produce many reports.
const slidingSrc = `
macro m(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String s) { m(s); }`

func repeatStream(unit string, n int) []byte {
	return []byte(strings.Repeat(unit, n))
}

// cancelOnCall is a context whose Err starts returning context.Canceled on
// its n-th call. The simulators check Err once before each chunk of
// automata.CancelCheckInterval symbols, so cancellation lands at a known
// chunk boundary instead of wherever a timer happens to fire.
type cancelOnCall struct {
	context.Context
	calls, n int
}

func (c *cancelOnCall) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

func TestRunContextCancelsPromptly(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	input := repeatStream("xxabcx", automata.CancelCheckInterval) // six chunks

	// Already-cancelled context: immediate ctx.Err(), no work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := runner.Run(ctx, input)
	if !errors.Is(err, context.Canceled) || len(reports) != 0 {
		t.Fatalf("pre-cancelled: %d reports, err %v", len(reports), err)
	}
	// The runner remains usable after a cancelled run.
	if got := mustRunBytes(t, runner, repeatStream("xxabcx", 10)); len(got) != 10 {
		t.Fatalf("post-cancel run: %d reports, want 10", len(got))
	}

	// Cancellation on the third check stops after exactly two chunks: the
	// partial reports are those of a fault-free run over that prefix.
	prefix := input[:2*automata.CancelCheckInterval]
	want := mustRunBytes(t, runner, prefix)
	if len(want) == 0 || len(want) >= len(mustRunBytes(t, runner, input)) {
		t.Fatalf("prefix run has %d reports; the test needs some, and fewer than the whole stream's", len(want))
	}
	for name, run := range map[string]func(context.Context, []byte) ([]Report, error){
		"Runner.Run": runner.Run,
		"Design.Run": design.Run,
	} {
		partial, err := run(&cancelOnCall{Context: context.Background(), n: 3}, input)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: mid-run err = %v, want context.Canceled", name, err)
		}
		if !reflect.DeepEqual(partial, want) {
			t.Fatalf("%s: %d partial reports, want the %d of the first two chunks", name, len(partial), len(want))
		}
	}
}

func TestRunnerCloneConcurrent(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		repeatStream("abc", 50),
		repeatStream("xabcx", 40),
		repeatStream("ab", 60),
		repeatStream("abcabc", 30),
	}
	wants := make([][]Report, len(inputs))
	for i, in := range inputs {
		wants[i] = mustRunBytes(t, runner, in)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		clone := runner.Clone() // shares tables, owns state
		go func(g int, r *Runner) {
			defer wg.Done()
			for trial := 0; trial < 20; trial++ {
				i := (g + trial) % len(inputs)
				got, err := r.RunBytes(inputs[i])
				if err != nil || !reflect.DeepEqual(got, wants[i]) {
					errs <- fmt.Errorf("goroutine %d input %d: %d reports, want %d (err %v)", g, i, len(got), len(wants[i]), err)
					return
				}
			}
		}(g, clone)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// panicMatcher models a backend with a crash bug.
type panicMatcher struct{}

func (panicMatcher) Name() string { return "flaky-device" }
func (panicMatcher) Match(context.Context, []byte) ([]Report, error) {
	panic("simulated device driver crash")
}

// corruptMatcher wraps a real backend but drops every report — a silently
// wrong backend only cross-checking can catch.
type corruptMatcher struct{ inner Matcher }

func (m corruptMatcher) Name() string { return "corrupt-device" }
func (m corruptMatcher) Match(ctx context.Context, input []byte) ([]Report, error) {
	if _, err := m.inner.Match(ctx, input); err != nil {
		return nil, err
	}
	return nil, nil
}

func TestFailoverChain(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	input := repeatStream("xxabcx", 50)
	want, err := design.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}

	// The standard ladder: device → lazy-dfa → reference, on a toy design
	// and on the Brill bank alike.
	reg := telemetry.NewRegistry()
	chain, err := design.FailoverChain(WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ladder := []string{"device", "lazy-dfa", "reference"}
	if got := chain.Backends(); !reflect.DeepEqual(got, ladder) {
		t.Fatalf("backends = %v", got)
	}
	brill := bench.Brill()
	brillSrc, brillArgs := brill.RAPID(brill.DefaultInstances)
	brillChain, err := mustDesign(t, brillSrc, brillArgs...).FailoverChain()
	if err != nil {
		t.Fatal(err)
	}
	if got := brillChain.Backends(); !reflect.DeepEqual(got, ladder) {
		t.Fatalf("Brill backends = %v", got)
	}
	got, err := chain.Run(context.Background(), input)
	if err != nil || !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("chain run: %v reports, err %v", Offsets(got), err)
	}
	expectCounters(t, reg, map[string][]string{
		"rapid_failover_served_total": {"backend", "device"},
	})
	if got := reg.Snapshot().Counter("rapid_failover_failures_total", "backend", "device", "cause", "error"); got != 0 {
		t.Fatalf("failures{device,error} = %d, want 0", got)
	}

	// A panicking primary is recovered into a structured error and the
	// stream fails over.
	ref, err := design.Backend(BackendReference)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	chain2 := NewFailoverChain(panicMatcher{}, ref).UseTelemetry(reg2)
	got, err = chain2.Run(context.Background(), input)
	if err != nil || !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("failover run: %v, err %v", Offsets(got), err)
	}
	expectCounters(t, reg2, map[string][]string{
		"rapid_failover_served_total":   {"backend", "reference"},
		"rapid_failover_failures_total": {"backend", "flaky-device", "cause", "panic"},
	})

	// Cross-checking catches a silently-corrupt backend: the stream is
	// served by the reference and the divergence is recorded.
	device, err := design.Backend(BackendDevice)
	if err != nil {
		t.Fatal(err)
	}
	reg3 := telemetry.NewRegistry()
	chain3 := NewFailoverChain(corruptMatcher{inner: device}, ref).UseTelemetry(reg3)
	chain3.CrossCheck = true
	got, err = chain3.Run(context.Background(), input)
	if err != nil || !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("cross-checked run: %v, err %v", Offsets(got), err)
	}
	expectCounters(t, reg3, map[string][]string{
		"rapid_failover_served_total":      {"backend", "reference"},
		"rapid_failover_divergences_total": {"backend", "corrupt-device"},
		"rapid_failover_failures_total":    {"backend", "corrupt-device", "cause", "divergence"},
	})

	// All backends failing surfaces the last structured error, wrapping
	// the recovered panic.
	chain4 := NewFailoverChain(panicMatcher{})
	if _, err := chain4.Run(context.Background(), input); err == nil {
		t.Fatal("all-failed chain returned nil error")
	} else {
		var be *BackendError
		var pe *resilience.PanicError
		if !errors.As(err, &be) || be.Backend != "flaky-device" || !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *BackendError from flaky-device wrapping the panic", err)
		}
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chain.Run(ctx, input); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chain err = %v", err)
	}
}

// expectCounters asserts that each named counter series (given as its
// label name/value pairs) is exactly 1 in reg.
func expectCounters(t *testing.T, reg *telemetry.Registry, want map[string][]string) {
	t.Helper()
	snap := reg.Snapshot()
	for name, labels := range want {
		if got := snap.Counter(name, labels...); got != 1 {
			t.Errorf("%s%v = %d, want 1", name, labels, got)
		}
	}
}

// TestFailoverChainHeapBounded: serve keeps one chain per failover design
// for the life of the process and runs every request through it, so Run
// must not retain anything per stream.
func TestFailoverChainHeapBounded(t *testing.T) {
	boom := errors.New("device offline")
	failing := &stubMatcher{name: "device", fn: func(context.Context, []byte) ([]Report, error) {
		return nil, boom
	}}
	serving := &stubMatcher{name: "reference", fn: func(context.Context, []byte) ([]Report, error) {
		return nil, nil
	}}
	chain := NewFailoverChain(failing, serving)
	input := []byte("xxabcx")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		if _, err := chain.Run(context.Background(), input); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(chain)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("live heap grew %d B over 100000 chain runs, want <= 1 MiB", grew)
	}
}
