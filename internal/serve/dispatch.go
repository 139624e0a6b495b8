package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	rapid "repro"
)

// Admission errors. The HTTP layer maps ErrOverCapacity to 429 and
// ErrDraining to 503, both with a Retry-After hint; the serve/client
// package retries them with the hint as a backoff floor.
var (
	// ErrOverCapacity means the design's bounded admission queue was full.
	ErrOverCapacity = errors.New("serve: over capacity, queue full")
	// ErrDraining means the server has stopped admitting requests and is
	// flushing in-flight work before shutting down.
	ErrDraining = errors.New("serve: draining, not admitting requests")
	// errStaleDesign means the design was swapped out by a hot reload
	// between lookup and admission; submitNamed re-resolves and retries.
	errStaleDesign = errors.New("serve: design reloaded, re-resolve")
)

// quotaExhaustedError is ErrQuotaExhausted with the tenant and the time
// until the next token, surfaced as the Retry-After hint.
type quotaExhaustedError struct {
	tenant string
	wait   time.Duration
}

func (e *quotaExhaustedError) Error() string {
	return fmt.Sprintf("serve: tenant %q quota exhausted, retry in %v", e.tenant, e.wait)
}

func (e *quotaExhaustedError) Unwrap() error { return ErrQuotaExhausted }

// job is one admitted match request traveling from the admission
// controller through a design's queue to its dispatcher.
type job struct {
	input    []byte
	done     chan rapid.BatchResult // buffered(1): dispatcher never blocks on delivery
	enqueued time.Time
}

// submitNamed is the full admission path above submit: the tenant quota
// gate first (quotas bound each tenant's share of the admission rate,
// before any queue is touched), then name resolution retried across hot
// reloads — a design swapped out between lookup and admission is
// re-resolved rather than surfaced as an error. It returns the design the
// request actually ran on.
func (s *Server) submitNamed(ctx context.Context, name, tenant string, input []byte) (*design, []rapid.Report, error) {
	if wait, ok := s.quotas.take(tenant); !ok {
		s.tel.quotaRejections.With(tenant).Inc()
		return nil, nil, &quotaExhaustedError{tenant: tenant, wait: wait}
	}
	s.tel.tenantRequests.With(tenant).Inc()
	for {
		d, err := s.lookup(name)
		if err != nil {
			return nil, nil, err
		}
		reports, err := s.submit(ctx, d, input)
		if errors.Is(err, errStaleDesign) {
			continue
		}
		return d, reports, err
	}
}

// submit is the admission controller: it either enqueues the request into
// the design's bounded queue and waits for the result, or refuses
// immediately — with ErrOverCapacity when the queue is full (the caller
// answers 429 + Retry-After) or ErrDraining during shutdown. Admitted
// requests are never dropped: the drain path flushes every queue before
// the dispatchers exit.
func (s *Server) submit(ctx context.Context, d *design, input []byte) ([]rapid.Report, error) {
	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		d.tel.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	if d.closed.Load() {
		// The design was swapped out by a hot reload; its queue is closed.
		s.admitMu.RUnlock()
		return nil, errStaleDesign
	}
	j := &job{input: input, done: make(chan rapid.BatchResult, 1), enqueued: time.Now()}
	// Count the job before the send: the dispatcher subtracts on receipt
	// and never waits, so counting afterwards lets a scrape read -1.
	d.tel.queueDepth.Inc()
	select {
	case d.queue <- j:
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		d.tel.queueDepth.Dec()
		d.tel.rejectedCapacity.Inc()
		return nil, ErrOverCapacity
	}
	select {
	case res := <-j.done:
		d.tel.finish(res.Err, j.enqueued)
		return res.Reports, res.Err
	case <-ctx.Done():
		// The caller is gone; the job still runs to completion in its
		// batch (results are discarded via the buffered channel).
		return nil, ctx.Err()
	}
}

// dispatch is a design's dispatcher loop: it pulls admitted jobs off the
// bounded queue, coalesces them into batches by back-pressure, and runs
// each on the design's engine. It exits when the queue is closed and fully
// drained, so shutdown never drops an admitted request.
func (s *Server) dispatch(d *design) {
	defer s.dispatchers.Done()
	for j := range d.queue {
		batch := collectBatch(d.queue, j, s.cfg.MaxBatch)
		d.tel.queueDepth.Add(-int64(len(batch)))
		d.tel.inflight.Add(int64(len(batch)))
		d.tel.batches.Inc()
		d.tel.batchSize.Observe(int64(len(batch)))
		s.runBatch(d, batch)
		d.tel.inflight.Add(-int64(len(batch)))
	}
}

// collectBatch is back-pressure batching: first plus whatever is already
// queued, up to max, and it never blocks. A batch is therefore exactly
// what arrived while the previous one ran: an idle design answers at once
// with a batch of one, a loaded one fills batches with no added latency.
// There is no straggler wait, and a short one is not to be had: a
// sub-millisecond Go timer fires after ≈1.15 ms, fifty times what a small
// match costs.
func collectBatch(queue <-chan *job, first *job, max int) []*job {
	batch := []*job{first}
	for len(batch) < max {
		select {
		case j, ok := <-queue:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes one coalesced batch on the settled batch path, so one
// bad stream degrades only itself.
func (s *Server) runBatch(d *design, batch []*job) {
	inputs := make([][]byte, len(batch))
	for i, j := range batch {
		inputs[i] = j.input
	}
	results := d.engine.RunBatchSettled(s.baseCtx, inputs)
	for i, j := range batch {
		j.done <- results[i]
	}
}
