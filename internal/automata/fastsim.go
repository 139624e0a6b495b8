package automata

import (
	"context"
	"fmt"
)

// FastSimulator is the throughput-oriented simulator: the shared step
// Kernel plus the mutable state a whole design needs — one configuration
// (the enable vector followed by the packed counter values), the report
// log, and checkpoints. A cycle is a handful of word-wide AND/OR passes
// instead of per-element class tests.
//
// The kernel's tables are immutable and shared by every simulator of the
// topology, and all mutable execution state lives in one flat word slice,
// so construction and Clone are a constant number of allocations
// regardless of design size.
//
// Semantics are identical to Simulator; the tests cross-check them.
type FastSimulator struct {
	k *Kernel

	// Mutable state: config, next, and active are equal-length subslices
	// of the single backing allocation state.
	state  []uint64
	config []uint64
	next   []uint64
	active bitset

	offset  int
	reports []Report
}

// NewFastSimulator freezes the network (validating it) and returns a fast
// simulator over its topology.
func NewFastSimulator(n *Network) (*FastSimulator, error) {
	t, err := n.Freeze()
	if err != nil {
		return nil, err
	}
	return t.NewFastSimulator(), nil
}

// NewFastSimulator returns a reset fast simulator over the frozen
// topology. Unlike the Network constructor it cannot fail: a Topology is
// valid by construction. The first simulator of a topology builds its
// kernel tables (O(elements × alphabet)); later ones only allocate state.
func (t *Topology) NewFastSimulator() *FastSimulator { return t.Kernel().NewFastSimulator() }

// NewFastSimulator returns a reset fast simulator stepping through k.
func (k *Kernel) NewFastSimulator() *FastSimulator {
	words := k.Words()
	s := &FastSimulator{k: k, state: make([]uint64, 3*words)}
	s.config = s.state[0:words:words]
	s.next = s.state[words : 2*words : 2*words]
	s.active = bitset(s.state[2*words : 3*words : 3*words])
	return s
}

// Reset returns the simulator to its initial configuration.
func (s *FastSimulator) Reset() {
	clear(s.state)
	s.offset = 0
	s.reports = nil
}

// Reports returns the report events generated so far.
func (s *FastSimulator) Reports() []Report { return s.reports }

// Offset returns the number of symbols consumed so far.
func (s *FastSimulator) Offset() int { return s.offset }

// Clone returns an independent, reset simulator for the same topology. It
// shares the kernel tables and owns fresh mutable state — a constant
// number of allocations — so servers can fan one design out across
// goroutines cheaply.
func (s *FastSimulator) Clone() *FastSimulator { return s.k.NewFastSimulator() }

// SimState is a checkpoint of a FastSimulator's mutable execution state,
// taken with Snapshot and reinstated with Restore. It captures the
// configuration (enable vector and counter values), stream offset, and
// report-log length, so a long stream interrupted by a transient fault can
// resume from the checkpoint instead of the beginning.
type SimState struct {
	config   []uint64
	offset   int
	nreports int
}

// Offset returns the stream offset at which the snapshot was taken.
func (st *SimState) Offset() int { return st.offset }

// Snapshot captures the simulator's current mutable state. The snapshot is
// independent of later stepping and may be restored any number of times.
func (s *FastSimulator) Snapshot() *SimState {
	return &SimState{config: append([]uint64(nil), s.config...), offset: s.offset, nreports: len(s.reports)}
}

// Restore reinstates a snapshot previously taken from this simulator (or a
// clone sharing its topology): execution state rewinds to the snapshot's
// offset and reports recorded after it are discarded.
func (s *FastSimulator) Restore(st *SimState) {
	clear(s.state)
	copy(s.config, st.config)
	s.offset = st.offset
	if len(s.reports) > st.nreports {
		s.reports = s.reports[:st.nreports]
	}
}

// Seed resets the simulator and installs a mid-stream configuration:
// config is the whole configuration — enable vector and counter values, as
// Kernel.Step writes it — in force at stream offset offset (nil is the
// initial one). Offset 0 means the next symbol is the stream's first. It
// is how the lazy DFA hands a configuration over when it demotes.
func (s *FastSimulator) Seed(config []uint64, offset int) {
	s.Reset()
	copy(s.config, config)
	s.offset = offset
}

// Active returns the elements active in the last cycle, in increasing
// order — what Trace records.
func (s *FastSimulator) Active() []ElementID {
	var out []ElementID
	s.active.forEach(func(id ElementID) { out = append(out, id) })
	return out
}

// Step processes one input symbol through the kernel.
func (s *FastSimulator) Step(symbol byte) {
	if s.k.Step(s.config, s.offset == 0, symbol, s.active, s.next) {
		s.k.forEachReport(s.active, func(code int) {
			s.reports = append(s.reports, Report{Offset: s.offset, Code: code})
		})
	}
	s.config, s.next = s.next, s.config
	s.offset++
}

// Run resets the simulator and processes the whole input.
func (s *FastSimulator) Run(input []byte) []Report {
	reports, _ := s.RunContext(context.Background(), input)
	return reports
}

// RunContext resets the simulator and feeds it the whole input.
func (s *FastSimulator) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	s.Reset()
	return s.Feed(ctx, input)
}

// Feed continues from the simulator's current configuration, processing
// input in chunks of CancelCheckInterval symbols and checking ctx between
// chunks. On cancellation it returns the reports produced so far together
// with ctx.Err(); the simulator is left at the offset it reached, in a
// state Snapshot/Restore can still operate on.
func (s *FastSimulator) Feed(ctx context.Context, input []byte) ([]Report, error) {
	for len(input) > 0 {
		if err := ctx.Err(); err != nil {
			return s.Reports(), err
		}
		chunk := input
		if len(chunk) > CancelCheckInterval {
			chunk = chunk[:CancelCheckInterval]
		}
		for _, b := range chunk {
			s.Step(b)
		}
		input = input[len(chunk):]
	}
	return s.Reports(), nil
}

// RunFast simulates the network over input using the precomputed fast
// path.
func (n *Network) RunFast(input []byte) ([]Report, error) {
	s, err := NewFastSimulator(n)
	if err != nil {
		return nil, fmt.Errorf("automata: %w", err)
	}
	return s.Run(input), nil
}
