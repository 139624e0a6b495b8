package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordSleep returns a Sleep that records delays and never actually waits.
func recordSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	var delays []time.Duration
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5, Sleep: recordSleep(&delays)}, func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt = %d, want %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

// TestRetryFirstTrySuccessAllocs pins the common case, an op that succeeds
// on its first attempt, at zero allocations: the jitter source is only
// seeded once a backoff needs it.
func TestRetryFirstTrySuccessAllocs(t *testing.T) {
	ctx := context.Background()
	op := func(int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if err := Retry(ctx, Policy{MaxAttempts: 3, Seed: 7}, op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("first-try success allocates %.1f times per call, want 0", allocs)
	}
}

func TestRetryExhausted(t *testing.T) {
	var delays []time.Duration
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 3, Sleep: recordSleep(&delays)}, func(int) error {
		calls++
		return fmt.Errorf("fault %d", calls)
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3", ex.Attempts, calls)
	}
	if got := ex.Last.Error(); got != "fault 3" {
		t.Fatalf("last = %q", got)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	sentinel := errors.New("broken design")
	err := Retry(context.Background(), Policy{MaxAttempts: 5}, func(int) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapping %v", err, sentinel)
	}
	if !IsPermanent(err) {
		t.Fatal("permanence lost in returned error")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) should be nil")
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Policy{}, func(int) error { calls++; return nil })
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}

	// Cancellation during an attempt is returned unretried.
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls = 0
	err = Retry(ctx2, Policy{MaxAttempts: 5}, func(int) error {
		calls++
		cancel2()
		return ctx2.Err()
	})
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}

func TestBackoffGrowsCapsAndIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var delays []time.Duration
		p := Policy{
			MaxAttempts: 6,
			BaseDelay:   time.Millisecond,
			MaxDelay:    4 * time.Millisecond,
			Seed:        7,
			Sleep:       recordSleep(&delays),
		}
		Retry(context.Background(), p, func(int) error { return errors.New("x") })
		return delays
	}
	first, second := run(), run()
	if len(first) != 5 {
		t.Fatalf("slept %d times, want 5", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, first[i], second[i])
		}
		if first[i] <= 0 || first[i] > 4*time.Millisecond {
			t.Fatalf("delay %d = %v outside (0, cap]", i, first[i])
		}
	}
	// Exponential growth up to the cap: the jitter strips at most 20%,
	// so the 3rd+ delay (capped at 4ms) must exceed the 1st (≤ 1ms).
	if first[4] <= first[0] {
		t.Fatalf("backoff did not grow: %v", first)
	}
}

func TestRecover(t *testing.T) {
	if err := Recover(func() error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	sentinel := errors.New("plain")
	if err := Recover(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error passthrough: %v", err)
	}
	err := Recover(func() error { panic("device on fire") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "device on fire" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
}

func TestRetryAfterFloorsBackoff(t *testing.T) {
	var delays []time.Duration
	calls := 0
	hint := 250 * time.Millisecond
	err := Retry(context.Background(), Policy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Sleep: recordSleep(&delays)}, func(int) error {
		calls++
		if calls < 3 {
			return RetryAfter(errors.New("over capacity"), hint)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v", err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	for i, d := range delays {
		if d < hint {
			t.Fatalf("delay %d = %v, want >= the %v Retry-After floor", i, d, hint)
		}
	}
}

func TestRetryAfterSmallerThanBackoffIsIgnored(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
		Jitter: -1, Sleep: recordSleep(&delays)}
	err := Retry(context.Background(), p, func(attempt int) error {
		if attempt == 0 {
			return RetryAfter(errors.New("hint below backoff"), time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v", err)
	}
	if len(delays) != 1 || delays[0] != 50*time.Millisecond {
		t.Fatalf("delays = %v, want the 50ms computed backoff", delays)
	}
}

func TestRetryAfterDelay(t *testing.T) {
	if d := RetryAfterDelay(errors.New("plain")); d != 0 {
		t.Fatalf("unmarked error has delay %v", d)
	}
	marked := RetryAfter(fmt.Errorf("wrap: %w", errors.New("inner")), time.Second)
	if d := RetryAfterDelay(marked); d != time.Second {
		t.Fatalf("delay = %v, want 1s", d)
	}
	if RetryAfter(nil, time.Second) != nil {
		t.Fatal("RetryAfter(nil) should be nil")
	}
}

// TestRetryDeadlineFailsFast proves Retry never sleeps past the context
// deadline: when the computed backoff exceeds the time remaining, it
// returns an *ExhaustedError wrapping context.DeadlineExceeded without
// sleeping at all.
func TestRetryDeadlineFailsFast(t *testing.T) {
	var delays []time.Duration
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	attempts := 0
	err := Retry(ctx, Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Second, // far beyond the 10ms budget
		Jitter:      -1,
		Sleep:       recordSleep(&delays),
	}, func(int) error {
		attempts++
		return fmt.Errorf("transient %d", attempts)
	})
	if attempts != 1 {
		t.Fatalf("made %d attempts, want 1 (backoff exceeds deadline after the first)", attempts)
	}
	if len(delays) != 0 {
		t.Fatalf("slept %v; a backoff past the deadline must not sleep", delays)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %v (%T), want *ExhaustedError", err, err)
	}
	if ex.Attempts != 1 {
		t.Fatalf("ExhaustedError.Attempts = %d, want 1", ex.Attempts)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestRetrySleepsWithinDeadline is the complement: a backoff that fits
// the remaining budget still sleeps and retries as before.
func TestRetrySleepsWithinDeadline(t *testing.T) {
	var delays []time.Duration
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	attempts := 0
	err := Retry(ctx, Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Jitter:      -1,
		Sleep:       recordSleep(&delays),
	}, func(int) error {
		attempts++
		return errors.New("transient")
	})
	if attempts != 3 || len(delays) != 2 {
		t.Fatalf("attempts=%d delays=%v, want 3 attempts and 2 sleeps", attempts, delays)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want plain exhaustion without DeadlineExceeded", err)
	}
}
