package automata

import (
	"context"
	"encoding/binary"
	"fmt"
)

// FastSimulator is the throughput-oriented simulator: the shared step
// Kernel plus the mutable state a whole design needs — the enable vector,
// counter values, gate and counter evaluation, the report log, and
// checkpoints. A cycle is a handful of word-wide AND/OR passes instead of
// per-element class tests.
//
// The kernel's tables are immutable and shared by every simulator of the
// topology, and all mutable execution state lives in one flat word slice
// plus the counter array, so construction and Clone are a constant number
// of allocations regardless of design size.
//
// Semantics are identical to Simulator; the tests cross-check them.
type FastSimulator struct {
	k *Kernel

	// Mutable state: enabled, nextEnabled, and active are equal-length
	// subslices of the single backing allocation state.
	state       []uint64
	enabled     bitset
	nextEnabled bitset
	active      bitset
	counterVal  []int // by position in Specials() (gate slots stay 0); nil for pure designs

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
	words := k.nwords
	s := &FastSimulator{k: k, state: make([]uint64, 3*words)}
	s.enabled = bitset(s.state[0:words:words])
	s.nextEnabled = bitset(s.state[words : 2*words : 2*words])
	s.active = bitset(s.state[2*words : 3*words : 3*words])
	if k.specials != nil {
		s.counterVal = make([]int, len(k.specials.Specials()))
	}
	return s
}

// Reset returns the simulator to its initial configuration.
func (s *FastSimulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
	for i := range s.counterVal {
		s.counterVal[i] = 0
	}
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
// taken with Snapshot and reinstated with Restore. It captures the enable
// vector, counter values, stream offset, and report-log length, so a long
// stream interrupted by a transient fault can resume from the checkpoint
// instead of the beginning.
type SimState struct {
	enabled    bitset
	counterVal []int
	offset     int
	nreports   int
}

// Offset returns the stream offset at which the snapshot was taken.
func (st *SimState) Offset() int { return st.offset }

// Snapshot captures the simulator's current mutable state. The snapshot is
// independent of later stepping and may be restored any number of times.
func (s *FastSimulator) Snapshot() *SimState {
	st := &SimState{
		enabled:    make(bitset, len(s.enabled)),
		counterVal: make([]int, len(s.counterVal)),
		offset:     s.offset,
		nreports:   len(s.reports),
	}
	copy(st.enabled, s.enabled)
	copy(st.counterVal, s.counterVal)
	return st
}

// Restore reinstates a snapshot previously taken from this simulator (or a
// clone sharing its topology): execution state rewinds to the snapshot's
// offset and reports recorded after it are discarded.
func (s *FastSimulator) Restore(st *SimState) {
	copy(s.enabled, st.enabled)
	copy(s.counterVal, st.counterVal)
	s.active.reset()
	s.nextEnabled.reset()
	s.offset = st.offset
	if len(s.reports) > st.nreports {
		s.reports = s.reports[:st.nreports]
	}
}

// Seed resets the simulator and installs a mid-stream configuration:
// enabled is the enable vector in force at stream offset offset, with all
// counters zero. Offset 0 means the next symbol is the stream's first. It
// is how the lazy DFA hands a configuration over when it demotes.
func (s *FastSimulator) Seed(enabled []uint64, offset int) {
	s.Reset()
	copy(s.enabled, enabled)
	s.offset = offset
}

// Active returns the elements active in the last cycle, in increasing
// order — what Trace records.
func (s *FastSimulator) Active() []ElementID {
	var out []ElementID
	s.active.forEach(func(id ElementID) { out = append(out, id) })
	return out
}

// appendConfigKey serializes the simulator's whole configuration — the
// kernel's key plus every counter value — as an exact map key.
func (s *FastSimulator) appendConfigKey(buf []byte) []byte {
	buf = AppendConfigKey(buf, s.enabled, s.offset == 0)
	for _, v := range s.counterVal {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// Step processes one input symbol: the kernel's activation pass, the
// counters and gates (rare path), then the kernel's propagation pass.
func (s *FastSimulator) Step(symbol byte) {
	s.k.activate(s.enabled, s.offset == 0, symbol, s.active)
	if s.k.specials != nil {
		s.evalSpecials()
	}
	if s.k.propagate(s.active, s.nextEnabled) {
		s.k.forEachReport(s.active, func(id ElementID, code int) {
			s.reports = append(s.reports, Report{Offset: s.offset, Element: id, Code: code})
		})
	}
	s.enabled, s.nextEnabled = s.nextEnabled, s.enabled
	s.offset++
}

func (s *FastSimulator) evalSpecials() {
	t := s.k.specials
	for slot, id := range t.Specials() {
		switch t.Kind(id) {
		case KindCounter:
			countIn, resetIn := false, false
			for _, in := range t.Ins(id) {
				if !s.active.has(ElementID(in.Node)) {
					continue
				}
				switch in.Port {
				case PortCount:
					countIn = true
				case PortReset:
					resetIn = true
				}
			}
			switch {
			case resetIn:
				s.counterVal[slot] = 0
			case countIn && s.counterVal[slot] < t.Target(id):
				s.counterVal[slot]++
			}
			if s.counterVal[slot] >= t.Target(id) {
				s.active.set(id)
			}
		case KindGate:
			anyActive, allActive := false, true
			for _, in := range t.Ins(id) {
				if s.active.has(ElementID(in.Node)) {
					anyActive = true
				} else {
					allActive = false
				}
			}
			var out bool
			switch t.Op(id) {
			case GateAnd:
				out = allActive
			case GateOr:
				out = anyActive
			case GateNot, GateNor:
				out = !anyActive
			case GateNand:
				out = !allActive
			}
			if out {
				s.active.set(id)
			}
		}
	}
}

// Run resets the simulator and processes the whole input.
func (s *FastSimulator) Run(input []byte) []Report {
	s.Reset()
	for _, b := range input {
		s.Step(b)
	}
	return s.Reports()
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
