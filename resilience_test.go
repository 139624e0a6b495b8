package rapid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
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
	if got := mustRun(t, runner, repeatStream("xxabcx", 10)); len(got) != 10 {
		t.Fatalf("post-cancel run: %d reports, want 10", len(got))
	}

	// Cancellation on the third check stops after exactly two chunks: the
	// partial reports are those of a fault-free run over that prefix.
	prefix := input[:2*automata.CancelCheckInterval]
	want := mustRun(t, runner, prefix)
	if len(want) == 0 || len(want) >= len(mustRun(t, runner, input)) {
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

// TestRunnersConcurrent: runners are not safe for concurrent use, so each
// goroutine builds its own from one shared design; they all agree with a
// runner used serially.
func TestRunnersConcurrent(t *testing.T) {
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
		wants[i] = mustRun(t, runner, in)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := design.NewRunner()
			if err != nil {
				errs <- err
				return
			}
			for trial := 0; trial < 20; trial++ {
				i := (g + trial) % len(inputs)
				got, err := r.Run(context.Background(), inputs[i])
				if err != nil || !reflect.DeepEqual(got, wants[i]) {
					errs <- fmt.Errorf("goroutine %d input %d: %d reports, want %d (err %v)", g, i, len(got), len(wants[i]), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
