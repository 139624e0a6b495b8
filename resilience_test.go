package rapid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/bench"
	"repro/internal/place"
	"repro/internal/resilience"
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

// noSleep makes retry backoff instantaneous in tests.
var noSleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }

// TestEndToEndFaultTolerance is the acceptance scenario: a design placed
// on a board with an injected defective block, streamed with mid-stream
// transient device faults, completes via checkpoint-replay and yields
// byte-identical reports to a fault-free run.
func TestEndToEndFaultTolerance(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))

	// The defective block is routed around at placement time.
	defects := ap.NewDefectMap(16, 0)
	placed, err := place.Place(design.net, place.Config{Defects: defects})
	if err != nil {
		t.Fatal(err)
	}
	for _, phys := range placed.PhysicalBlocks {
		if defects.Defective(phys) {
			t.Fatalf("placement used defective block %d", phys)
		}
	}

	input := repeatStream("xxabcx", 400) // 2400 symbols, several checkpoints
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	want := mustRunBytes(t, runner, input)
	if len(want) == 0 {
		t.Fatal("fault-free run produced no reports; bad test design")
	}

	// Transient faults mid-stream, one per checkpoint segment plus a
	// repeated one, all healing within the retry budget.
	plan := &ap.FaultPlan{Seed: 1, TransientAt: []int{100, 700, 1500}, TransientRepeat: 2}
	inj := plan.NewInjector()
	got, stats, err := runner.RunResilient(context.Background(), input, &RunOptions{
		Checkpoint:   512,
		Policy:       resilience.Policy{MaxAttempts: 3, Sleep: noSleep},
		BeforeSymbol: inj.BeforeSymbol,
		MapSymbol:    inj.Apply,
	})
	if err != nil {
		t.Fatalf("resilient run failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulted run reports differ: got %d, want %d", len(got), len(want))
	}
	if stats.Retries < 6 { // 3 offsets × 2 fires each
		t.Fatalf("retries = %d, want >= 6", stats.Retries)
	}
	if stats.ReplayedSymbols == 0 {
		t.Fatal("no symbols replayed despite transient faults")
	}
	if pending := inj.PendingTransients(); len(pending) != 0 {
		t.Fatalf("unconsumed faults: %v", pending)
	}
}

func TestRunResilientExhaustsOnPersistentFault(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	// A fault that outlives the retry budget must surface, typed.
	plan := &ap.FaultPlan{TransientAt: []int{10}, TransientRepeat: 100}
	inj := plan.NewInjector()
	_, _, err = runner.RunResilient(context.Background(), repeatStream("abc", 20), &RunOptions{
		Policy:       resilience.Policy{MaxAttempts: 2, Sleep: noSleep},
		BeforeSymbol: inj.BeforeSymbol,
	})
	var ex *resilience.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	var tf *ap.TransientFault
	if !errors.As(err, &tf) || tf.Offset != 10 {
		t.Fatalf("err = %v, want wrapping TransientFault at 10", err)
	}
}

func TestRunContextCancelsPromptly(t *testing.T) {
	design := mustDesign(t, slidingSrc, Str("abc"))
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	input := repeatStream("xxabcx", 2_000_000) // 12M symbols, tens of ms of work

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

	// Cancellation mid-run aborts long before the stream ends.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	var partial []Report
	var runErr error
	go func() {
		defer close(done)
		partial, runErr = runner.Run(ctx2, input)
	}()
	time.Sleep(2 * time.Millisecond)
	cancel2()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("mid-run err = %v, want context.Canceled", runErr)
	}
	if len(partial) >= len(input)/6 {
		t.Fatalf("run completed (%d reports) despite cancellation", len(partial))
	}
	// Design-level variant honors cancellation too.
	if _, err := design.Run(ctx, repeatStream("abc", 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Design.RunContext err = %v", err)
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
	chain, err := design.FailoverChain()
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
	recs := chain.Records()
	if len(recs) != 1 || recs[0].Backend != "device" || len(recs[0].Failures) != 0 {
		t.Fatalf("records = %+v", recs)
	}

	// A panicking primary is recovered into a structured error and the
	// stream fails over.
	ref, err := design.Backend(BackendReference)
	if err != nil {
		t.Fatal(err)
	}
	chain2 := NewFailoverChain(panicMatcher{}, ref)
	got, err = chain2.Run(context.Background(), input)
	if err != nil || !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("failover run: %v, err %v", Offsets(got), err)
	}
	recs = chain2.Records()
	if len(recs) != 1 || recs[0].Backend != "reference" {
		t.Fatalf("records = %+v", recs)
	}
	if len(recs[0].Failures) != 1 || recs[0].Failures[0].Backend != "flaky-device" {
		t.Fatalf("failures = %+v", recs[0].Failures)
	}
	var pe *resilience.PanicError
	if !errors.As(recs[0].Failures[0], &pe) {
		t.Fatalf("failure should wrap the recovered panic: %v", recs[0].Failures[0])
	}

	// Cross-checking catches a silently-corrupt backend: the stream is
	// served by the reference and the divergence is recorded.
	device, err := design.Backend(BackendDevice)
	if err != nil {
		t.Fatal(err)
	}
	chain3 := NewFailoverChain(corruptMatcher{inner: device}, ref)
	chain3.CrossCheck = true
	got, err = chain3.Run(context.Background(), input)
	if err != nil || !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("cross-checked run: %v, err %v", Offsets(got), err)
	}
	recs = chain3.Records()
	if len(recs) != 1 || !recs[0].Diverged || recs[0].Backend != "reference" {
		t.Fatalf("divergence not recorded: %+v", recs)
	}
	var de *DivergenceError
	if !errors.As(recs[0].Failures[0], &de) || de.Backend != "corrupt-device" {
		t.Fatalf("failures = %+v", recs[0].Failures)
	}

	// All backends failing surfaces the last structured error.
	chain4 := NewFailoverChain(panicMatcher{})
	if _, err := chain4.Run(context.Background(), input); err == nil {
		t.Fatal("all-failed chain returned nil error")
	} else {
		var be *BackendError
		if !errors.As(err, &be) || be.Backend != "flaky-device" {
			t.Fatalf("err = %v, want *BackendError from flaky-device", err)
		}
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chain.Run(ctx, input); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chain err = %v", err)
	}
}
