package automata

import (
	"fmt"
	"io"
	"strings"
)

// CycleTrace records one simulation cycle for debugging: which elements
// were active while processing the symbol at Offset, and the reports that
// fired.
type CycleTrace struct {
	Offset  int
	Symbol  byte
	Active  []ElementID
	Reports []Report
}

// Trace simulates the network over input and records every cycle's active
// set — the execution-visibility tool the paper's future-work section
// calls for when debugging pattern-matching designs.
func (n *Network) Trace(input []byte) ([]CycleTrace, error) {
	sim, err := NewFastSimulator(n)
	if err != nil {
		return nil, err
	}
	out := make([]CycleTrace, 0, len(input))
	reported := 0
	for i, sym := range input {
		sim.Step(sym)
		all := sim.Reports()
		cycle := CycleTrace{Offset: i, Symbol: sym, Active: sim.Active()}
		cycle.Reports = append(cycle.Reports, all[reported:]...)
		reported = len(all)
		out = append(out, cycle)
	}
	return out, nil
}

// WriteTrace renders a trace in a compact human-readable form, naming
// elements by their ANML ids and annotating origins where present.
func (n *Network) WriteTrace(w io.Writer, input []byte) error {
	trace, err := n.Trace(input)
	if err != nil {
		return err
	}
	for _, c := range trace {
		var names []string
		for _, id := range c.Active {
			e := &n.elems[id]
			name := fmt.Sprintf("ste%d", id)
			if e.Name != "" {
				name = e.Name
			}
			switch e.Kind {
			case KindCounter:
				name = fmt.Sprintf("cnt%d", id)
			case KindGate:
				name = fmt.Sprintf("%s%d", e.Op, id)
			}
			if e.Origin != "" {
				name += "(" + e.Origin + ")"
			}
			names = append(names, name)
		}
		sym := fmt.Sprintf("%q", c.Symbol)
		line := fmt.Sprintf("%5d %-6s active=%-3d %s", c.Offset, sym, len(c.Active), strings.Join(names, " "))
		if len(c.Reports) > 0 {
			var codes []string
			for _, r := range c.Reports {
				codes = append(codes, fmt.Sprintf("code=%d", r.Code))
			}
			line += "  REPORT " + strings.Join(codes, " ")
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	return nil
}
