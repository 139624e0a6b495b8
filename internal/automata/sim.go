package automata

import (
	"cmp"
	"context"
	"slices"
)

// Report is a report event, the one output of every execution tier: a
// reporting element with report code Code was active while processing the
// symbol at Offset (0-based) in the input stream.
type Report struct {
	Offset int
	Code   int
}

// CompareReports orders reports by offset, then code.
func CompareReports(a, b Report) int {
	return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Code, b.Code))
}

// Canonical sorts rs by (offset, code) and drops duplicates in place,
// returning the shortened slice: the form in which two tiers' report sets
// compare equal. On a run already canonical both passes are linear.
func Canonical(rs []Report) []Report {
	slices.SortFunc(rs, CompareReports)
	return slices.Compact(rs)
}

// CancelCheckInterval is the number of symbols simulators process between
// context-cancellation checks in the RunContext variants: long enough that
// the check is free on the hot path, short enough that cancellation is
// prompt (a chunk is microseconds of work).
const CancelCheckInterval = 4096

// Simulator executes a network in lock-step against an input stream,
// mirroring the AP's execution model: all active states process each input
// symbol simultaneously.
//
// Per symbol cycle: enabled STEs whose class contains the symbol activate;
// activations drive counter count/reset ports and boolean gates, which
// evaluate combinationally (the special-element subgraph must be acyclic);
// every active element's activation outputs enable downstream STEs for the
// next cycle; active reporting elements record a report at the current
// offset. When a counter's reset port is driven, reset dominates: the value
// is cleared and any simultaneous count is ignored.
type Simulator struct {
	n        *Network
	specials []ElementID // counters and gates in combinational order

	enabled     bitset // STE enables for the upcoming symbol (edge-driven)
	nextEnabled bitset
	active      bitset // activations during the current cycle
	counterVal  []int  // indexed by element id; meaningful for counters only

	startOfData []ElementID // STEs enabled for the first symbol only
	allInput    []ElementID // STEs enabled on every symbol

	offset  int
	reports []Report
}

// NewSimulator validates the network and prepares a simulator for it.
func NewSimulator(n *Network) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	specials, err := n.specialOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		n:           n,
		specials:    specials,
		enabled:     newBitset(n.Len()),
		nextEnabled: newBitset(n.Len()),
		active:      newBitset(n.Len()),
		counterVal:  make([]int, n.Len()),
	}
	// Direct field iteration rather than Elements: the reference simulator
	// must keep working on frozen networks, and Elements panics there.
	for i := range n.elems {
		e := &n.elems[i]
		if e.Kind != KindSTE {
			continue
		}
		switch e.Start {
		case StartOfData:
			s.startOfData = append(s.startOfData, e.ID)
		case StartAllInput:
			s.allInput = append(s.allInput, e.ID)
		}
	}
	return s, nil
}

// Reset returns the simulator to its initial configuration: no enables, all
// counters zero, offset zero, and an empty report log.
func (s *Simulator) Reset() {
	s.enabled.reset()
	s.nextEnabled.reset()
	s.active.reset()
	clear(s.counterVal)
	s.offset = 0
	s.reports = nil
}

// Offset returns the number of symbols consumed so far.
func (s *Simulator) Offset() int { return s.offset }

// Reports returns the report events generated so far. The slice is owned by
// the simulator until Reset.
func (s *Simulator) Reports() []Report { return s.reports }

// Step processes one input symbol.
func (s *Simulator) Step(symbol byte) {
	n := s.n
	s.active.reset()

	// Phase 1: STE activation.
	activateIfMatch := func(id ElementID) {
		if n.elems[id].Class.Contains(symbol) {
			s.active.set(id)
		}
	}
	s.enabled.forEach(func(id ElementID) {
		if n.elems[id].Kind == KindSTE {
			activateIfMatch(id)
		}
	})
	if s.offset == 0 {
		for _, id := range s.startOfData {
			activateIfMatch(id)
		}
	}
	for _, id := range s.allInput {
		activateIfMatch(id)
	}

	// Phase 2: combinational evaluation of counters and gates.
	for _, id := range s.specials {
		e := &n.elems[id]
		switch e.Kind {
		case KindCounter:
			countIn, resetIn := false, false
			for _, in := range n.ins[id] {
				if !s.active.has(in.From) {
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
				s.counterVal[id] = 0
			case countIn && s.counterVal[id] < e.Target:
				s.counterVal[id]++
			}
			if s.counterVal[id] >= e.Target {
				s.active.set(id)
			}
		case KindGate:
			anyActive, allActive := false, true
			for _, in := range n.ins[id] {
				if s.active.has(in.From) {
					anyActive = true
				} else {
					allActive = false
				}
			}
			var out bool
			switch e.Op {
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

	// Phase 3: reporting and next-cycle enables.
	s.nextEnabled.reset()
	s.active.forEach(func(id ElementID) {
		e := &n.elems[id]
		if e.Report {
			s.reports = append(s.reports, Report{Offset: s.offset, Code: e.ReportCode})
		}
		for _, out := range n.outs[id] {
			if out.Port == PortIn && n.elems[out.To].Kind == KindSTE {
				s.nextEnabled.set(out.To)
			}
		}
	})
	s.enabled, s.nextEnabled = s.nextEnabled, s.enabled
	s.offset++
}

// Run resets the simulator and processes the whole input, returning the
// report events.
func (s *Simulator) Run(input []byte) []Report {
	reports, _ := s.RunContext(context.Background(), input)
	return reports
}

// RunContext resets the simulator and processes input in chunks of
// CancelCheckInterval symbols, checking ctx between chunks. On
// cancellation it returns the reports produced so far together with
// ctx.Err().
func (s *Simulator) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	s.Reset()
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

// Run is a convenience that simulates the network over input and returns
// its report events.
func (n *Network) Run(input []byte) ([]Report, error) {
	return n.RunContext(context.Background(), input)
}

// RunContext is Run with cooperative cancellation: simulation proceeds in
// chunks and aborts with ctx.Err() (returning the reports produced so far)
// once ctx is done.
func (n *Network) RunContext(ctx context.Context, input []byte) ([]Report, error) {
	s, err := NewSimulator(n)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx, input)
}
