package rapid

import (
	"context"
	"fmt"
	"strings"
)

// Matcher is one execution backend for a compiled design behind the
// uniform interface every tier implements: the functional device model,
// the lazy-DFA engine, or the reference simulator. Construct one with
// Design.Backend. A Matcher owns its mutable state and is not safe for
// concurrent use unless documented otherwise.
type Matcher interface {
	// Name identifies the backend in metrics labels and errors; it
	// matches the BackendKind for the built-in tiers.
	Name() string
	// Match executes the design over one input stream.
	Match(ctx context.Context, input []byte) ([]Report, error)
}

// backend is the one Matcher adapter: a tier's kind name and its run
// function. Design.Backend builds it for every kind.
type backend struct {
	name string
	run  func(ctx context.Context, input []byte) ([]Report, error)
}

func (b backend) Name() string { return b.name }
func (b backend) Match(ctx context.Context, input []byte) ([]Report, error) {
	return b.run(ctx, input)
}

// BackendKind names one of the design's execution tiers. The constants
// are in canonical order, fastest-and-least-trusted first.
type BackendKind string

// The three execution tiers of a compiled design.
const (
	// BackendDevice is the functional AP device model: the design's
	// device network, the one placement places (pruned, merged and
	// fan-in split), on the precomputed-table bitset simulator (Runner).
	BackendDevice BackendKind = "device"
	// BackendLazyDFA is the bounded-memory lazy-DFA engine (NewEngine);
	// always available — counter components determinize whole
	// configurations, counter values included.
	BackendLazyDFA BackendKind = "lazy-dfa"
	// BackendReference is the lock-step reference simulator — the
	// slowest, most trusted path.
	BackendReference BackendKind = "reference"
)

// BackendKinds returns every backend kind in canonical order.
func BackendKinds() []BackendKind {
	return []BackendKind{BackendDevice, BackendLazyDFA, BackendReference}
}

// UnknownBackendError reports a string that names no backend kind, and
// lists the valid kinds. rapidrun surfaces it verbatim for -backend.
type UnknownBackendError struct {
	Got string
}

func (e *UnknownBackendError) Error() string {
	names := make([]string, 0, len(BackendKinds()))
	for _, k := range BackendKinds() {
		names = append(names, string(k))
	}
	return fmt.Sprintf("rapid: unknown backend %q (valid kinds: %s)",
		e.Got, strings.Join(names, ", "))
}

// ParseBackendKind parses a -backend flag value into a BackendKind,
// returning an *UnknownBackendError listing the valid kinds on a bad
// value.
func ParseBackendKind(s string) (BackendKind, error) {
	for _, k := range BackendKinds() {
		if s == string(k) {
			return k, nil
		}
	}
	return "", &UnknownBackendError{Got: s}
}

// Backend constructs the named execution tier behind the uniform Matcher
// interface — the one entry point rapidrun and the conformance campaign
// build backends through. Options apply where relevant (workers and cache
// caps to the lazy-DFA tier, telemetry to every tier); the per-path
// constructors (NewRunner, NewEngine) remain for callers that need a
// tier's own methods.
func (d *Design) Backend(kind BackendKind, opts ...Option) (Matcher, error) {
	var run func(ctx context.Context, input []byte) ([]Report, error)
	switch kind {
	case BackendDevice:
		runner, err := d.NewRunner(opts...)
		if err != nil {
			return nil, err
		}
		run = runner.Run
	case BackendLazyDFA:
		eng, err := d.NewEngine(opts...)
		if err != nil {
			return nil, err
		}
		run = eng.Run
	case BackendReference:
		tel := newBackendMetrics(applyOptions(opts).tel, string(BackendReference))
		run = func(ctx context.Context, input []byte) ([]Report, error) {
			start := tel.start()
			reports, err := d.Run(ctx, input)
			tel.record(len(input), len(reports), err, start)
			return reports, err
		}
	default:
		return nil, &UnknownBackendError{Got: string(kind)}
	}
	return backend{name: string(kind), run: run}, nil
}
