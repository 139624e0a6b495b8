package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	rapid "repro"
	"repro/internal/bench"
)

// expect is what the oracle says one input must produce: the number of
// distinct (offset, code) report pairs and an order-independent hash of them.
type expect struct {
	n   int
	sum uint64
}

// pairHash is FNV-1a over the two words of a report pair.
func pairHash(offset, code int) uint64 {
	const prime = 1099511628211
	h := (uint64(14695981039346656037) ^ uint64(offset)) * prime
	return (h ^ uint64(code)) * prime
}

// matches reports whether a reply equals the oracle's set. rebase is
// subtracted from each offset first: stream replies arrive in stream
// coordinates while the oracle ran on the framed record alone.
func (e expect) matches(reports []rapid.Report, rebase int) bool {
	if len(reports) != e.n {
		return false
	}
	var sum uint64
	for _, r := range reports {
		sum += pairHash(r.Offset-rebase, r.Code)
	}
	return sum == e.sum
}

// item is one pool input with the design it is sent to and its oracle.
type item struct {
	design string
	input  []byte
	want   expect
}

// input draws one bench.Input of exactly size bytes. Generators overshoot by
// up to a record, so the tail is cut; the oracle sees the same cut bytes.
func input(app *bench.Benchmark, rng *rand.Rand, size int) []byte {
	return app.Input(rng, size)[:size]
}

// record draws a size-byte stream record: a bench input without its leading
// separator and with interior separators overwritten, because a record of an
// NDJSON match stream cannot contain the framing symbol.
func record(app *bench.Benchmark, rng *rand.Rand, size int) []byte {
	rec := input(app, rng, size+1)[1:]
	for i, b := range rec {
		if b == rapid.StartOfInput {
			rec[i] = 0
		}
	}
	return rec
}

// oracle computes the expected report set of every input on spec with the
// reference backend of a design compiled for the purpose, so nothing is
// shared with the engines under test. With crossCheck the distinct offsets
// must also equal bench.Oracle's, the direct CPU algorithm; that holds only
// for unmodified bench inputs. Inputs are split across the processors, each
// share on its own compiled copy of the design.
func oracle(spec designSpec, inputs [][]byte, crossCheck bool) ([]expect, error) {
	out := make([]expect, len(inputs))
	shares := runtime.GOMAXPROCS(0)
	errs := make([]error, shares)
	var wg sync.WaitGroup
	for w := 0; w < shares; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				d, err := spec.compile()
				if err != nil {
					return err
				}
				ref, err := d.Backend(rapid.BackendReference)
				if err != nil {
					return err
				}
				for i := w; i < len(inputs); i += shares {
					reports, err := ref.Match(context.Background(), inputs[i])
					if err != nil {
						return fmt.Errorf("oracle %s input %d: %w", spec.name, i, err)
					}
					seen := make(map[[2]int]bool, len(reports))
					for _, r := range reports {
						if k := [2]int{r.Offset, r.Code}; !seen[k] {
							seen[k] = true
							out[i].n++
							out[i].sum += pairHash(r.Offset, r.Code)
						}
					}
					if !crossCheck {
						continue
					}
					got, want := rapid.Offsets(reports), spec.app.Oracle(inputs[i], spec.n)
					if !slices.Equal(got, want) {
						return fmt.Errorf("oracle %s input %d: reference offsets differ from bench.Oracle (%d vs %d)",
							spec.name, i, len(got), len(want))
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// items pairs unmodified bench inputs for one design with their oracle.
func items(spec designSpec, inputs [][]byte) ([]item, error) {
	want, err := oracle(spec, inputs, true)
	if err != nil {
		return nil, err
	}
	out := make([]item, len(inputs))
	for i, in := range inputs {
		out[i] = item{spec.name, in, want[i]}
	}
	return out, nil
}

// draw generates n inputs of size bytes for spec.
func draw(spec designSpec, rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = input(spec.app, rng, size)
	}
	return out
}
