// Package resilience provides the generic fault-tolerance primitives the
// serving gateway and the Go client build on: a bounded retry policy with
// deterministic exponential backoff and jitter, permanent-error marking,
// Retry-After hints, and a per-replica circuit breaker.
//
// A served request that meets a crashed, overloaded or draining replica is
// retried on the next one under these primitives, so a lost replica costs
// a retry instead of a failed request.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy bounds and paces retries of a transient-faulting operation.
// The zero value is usable and means: 3 attempts, 1ms base delay doubling
// up to 100ms, 20% jitter, seed 0 (deterministic).
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// <= 0 means 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; <= 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; <= 0 means 100ms.
	MaxDelay time.Duration
	// Multiplier scales the delay each retry; <= 1 means 2.
	Multiplier float64
	// Jitter is the fraction of the delay randomized away (0..1);
	// < 0 disables jitter, 0 means the default 0.2.
	Jitter float64
	// Seed makes the jitter sequence deterministic; same seed, same
	// delays. Distinct streams should use distinct seeds to avoid
	// synchronized retry storms.
	Seed int64
	// Sleep overrides how delays are waited out (tests inject a recorder;
	// nil means a context-aware real sleep).
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = sleepContext
	}
	return p
}

func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff returns the delay before retry number retry (0-based), with
// exponential growth, a cap, and jitter drawn from rng.
func (p Policy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// permanentError marks an error that Retry must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry fails immediately instead of retrying.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// retryAfterError carries a server-suggested minimum delay before the
// next attempt (e.g. an HTTP 429 Retry-After hint).
type retryAfterError struct {
	err   error
	delay time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// RetryAfter wraps err with a server-suggested minimum delay before the
// next attempt. Retry honors it as a floor on the backoff: the wait
// before the retry is max(computed backoff, d). Serving clients mark 429
// responses with the parsed Retry-After header this way, so backpressure
// hints from the server override an impatient local policy.
func RetryAfter(err error, d time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, delay: d}
}

// RetryAfterDelay extracts the delay attached with RetryAfter, or 0 when
// err carries none.
func RetryAfterDelay(err error) time.Duration {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.delay
	}
	return 0
}

// ExhaustedError is returned by Retry when every attempt failed; it wraps
// the last attempt's error.
type ExhaustedError struct {
	Attempts int
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("resilience: %d attempts exhausted: %v", e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// Retry runs op up to p.MaxAttempts times, backing off between attempts.
// op receives the 0-based attempt number. Retry stops early — returning
// the error unwrapped — when op succeeds, when the error is marked
// Permanent, or when ctx is cancelled (context errors are never retried).
// Exhausting all attempts returns an *ExhaustedError wrapping the last
// failure.
//
// Retry never sleeps past the context deadline: when the computed backoff
// exceeds the time remaining on ctx, it fails fast with an
// *ExhaustedError wrapping context.DeadlineExceeded (and recording the
// last attempt's error) instead of burning the caller's budget on a wait
// that cannot end in another attempt.
func Retry(ctx context.Context, p Policy, op func(attempt int) error) error {
	p = p.withDefaults()
	var rng *rand.Rand // seeded on the first backoff, so a first-try success allocates nothing
	var last error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(attempt)
		if err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if IsPermanent(err) {
			return err
		}
		last = err
		if attempt+1 < p.MaxAttempts {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			d := p.backoff(attempt, rng)
			if ra := RetryAfterDelay(err); ra > d {
				d = ra
			}
			if deadline, ok := ctx.Deadline(); ok && d > time.Until(deadline) {
				return &ExhaustedError{
					Attempts: attempt + 1,
					Last: fmt.Errorf("backoff %v exceeds context deadline (last error: %v): %w",
						d, last, context.DeadlineExceeded),
				}
			}
			if serr := p.Sleep(ctx, d); serr != nil {
				return serr
			}
		}
	}
	return &ExhaustedError{Attempts: p.MaxAttempts, Last: last}
}
