package rapid

import (
	"context"
	"fmt"
	"strings"
)

// BackendKind names one of the design's execution tiers. The constants
// are the canonical ladder order, fastest-and-least-trusted first.
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

// BackendKinds returns every backend kind in ladder order.
func BackendKinds() []BackendKind {
	return []BackendKind{BackendDevice, BackendLazyDFA, BackendReference}
}

// UnknownBackendError reports a string that names no backend kind, and
// lists the valid kinds. Both CLIs surface it verbatim for -backend.
type UnknownBackendError struct {
	Got string
}

func (e *UnknownBackendError) Error() string {
	kinds := BackendKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return fmt.Sprintf("rapid: unknown backend %q (valid kinds: %s)",
		e.Got, strings.Join(names, ", "))
}

// ParseBackendKind parses a -backend flag value into a BackendKind,
// returning an *UnknownBackendError listing the valid kinds on a bad
// value. It is the one helper rapidrun and rapidserve parse with.
func ParseBackendKind(s string) (BackendKind, error) {
	for _, k := range BackendKinds() {
		if s == string(k) {
			return k, nil
		}
	}
	return "", &UnknownBackendError{Got: s}
}

// Backend constructs the named execution tier behind the uniform Matcher
// interface — the one entry point the failover chain, the CLIs, and the
// harness build backends through. Options apply where relevant (workers
// and cache caps to the lazy-DFA tier, telemetry to every tier); the
// per-path constructors (NewRunner, NewEngine) remain for callers that
// need a tier's own methods.
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
