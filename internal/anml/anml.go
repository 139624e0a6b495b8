// Package anml reads and writes the Automata Network Markup Language, the
// XML design language of Micron's Automata Processor tool chain and the
// interchange format emitted by the RAPID compiler (Section 5 of the paper).
//
// The dialect implemented here covers the constructs the paper uses:
// state-transition-elements with symbol sets and start kinds,
// latching saturating counters with count/reset ports (addressed as
// "id:cnt" and "id:rst" connection targets), boolean elements (and, or,
// inverter, nor, nand), activation edges, and report-on-match markers.
package anml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// xmlANML is the document root.
type xmlANML struct {
	XMLName xml.Name   `xml:"anml"`
	Version string     `xml:"version,attr"`
	Macros  []xmlMacro `xml:"macro-definition"`
	Network xmlNetwork `xml:"automata-network"`
}

type xmlNetwork struct {
	ID        string       `xml:"id,attr"`
	STEs      []xmlSTE     `xml:"state-transition-element"`
	Counters  []xmlCounter `xml:"counter"`
	Ands      []xmlGate    `xml:"and"`
	Ors       []xmlGate    `xml:"or"`
	Nots      []xmlGate    `xml:"inverter"`
	Nors      []xmlGate    `xml:"nor"`
	Nands     []xmlGate    `xml:"nand"`
	MacroRefs []xmlMacro   `xml:"macro-reference"`
}

// xmlMacro is a macro definition or reference, read only to be refused:
// this dialect has no macros, and a reader that skipped one would load
// a network missing the elements the macro stands for.
type xmlMacro struct {
	ID string `xml:"id,attr"`
}

type xmlActivate struct {
	Element string `xml:"element,attr"`
}

type xmlReport struct {
	ReportCode *int `xml:"reportcode,attr"`
}

type xmlSTE struct {
	ID        string        `xml:"id,attr"`
	SymbolSet string        `xml:"symbol-set,attr"`
	Start     string        `xml:"start,attr,omitempty"`
	Activate  []xmlActivate `xml:"activate-on-match"`
	Report    *xmlReport    `xml:"report-on-match"`
}

type xmlCounter struct {
	ID       string        `xml:"id,attr"`
	Target   int           `xml:"target,attr"`
	AtTarget string        `xml:"at-target,attr"`
	Activate []xmlActivate `xml:"activate-on-target"`
	Report   *xmlReport    `xml:"report-on-target"`
}

type xmlGate struct {
	ID       string        `xml:"id,attr"`
	Activate []xmlActivate `xml:"activate-on-high"`
	Report   *xmlReport    `xml:"report-on-high"`
}

// TopoElementID returns the ANML id of element id in a frozen topology:
// its name when set, otherwise a kind-prefixed synthetic id.
func TopoElementID(t *automata.Topology, id automata.ElementID) string {
	if name := t.NameOf(id); name != "" {
		return name
	}
	switch t.Kind(id) {
	case automata.KindSTE:
		return fmt.Sprintf("ste%d", id)
	case automata.KindCounter:
		return fmt.Sprintf("cnt%d", id)
	default:
		return fmt.Sprintf("gate%d", id)
	}
}

func startAttr(s automata.StartKind) string {
	switch s {
	case automata.StartOfData:
		return "start-of-data"
	case automata.StartAllInput:
		return "all-input"
	default:
		return ""
	}
}

func parseStart(s string) (automata.StartKind, error) {
	switch s {
	case "", "none":
		return automata.StartNone, nil
	case "start-of-data":
		return automata.StartOfData, nil
	case "all-input":
		return automata.StartAllInput, nil
	default:
		return automata.StartNone, fmt.Errorf("anml: unknown start kind %q", s)
	}
}

// portSuffix returns the connection-target suffix for a port.
func portSuffix(p automata.Port) string {
	switch p {
	case automata.PortCount:
		return ":cnt"
	case automata.PortReset:
		return ":rst"
	default:
		return ""
	}
}

// Marshal renders a frozen topology as an ANML document.
func Marshal(t *automata.Topology) ([]byte, error) {
	doc := xmlANML{Version: "1.0"}
	doc.Network.ID = t.Name
	ids := make(map[automata.ElementID]string, t.Len())
	seen := make(map[string]bool, t.Len())
	for id := automata.ElementID(0); id < automata.ElementID(t.Len()); id++ {
		aid := TopoElementID(t, id)
		if seen[aid] {
			return nil, fmt.Errorf("anml: duplicate element id %q", aid)
		}
		seen[aid] = true
		ids[id] = aid
	}

	activations := func(src automata.ElementID) []xmlActivate {
		var out []xmlActivate
		for _, edge := range t.Outs(src) {
			out = append(out, xmlActivate{Element: ids[automata.ElementID(edge.Node)] + portSuffix(edge.Port)})
		}
		return out
	}
	report := func(id automata.ElementID) *xmlReport {
		if !t.Reports(id) {
			return nil
		}
		code := t.ReportCode(id)
		return &xmlReport{ReportCode: &code}
	}

	for id := automata.ElementID(0); id < automata.ElementID(t.Len()); id++ {
		switch t.Kind(id) {
		case automata.KindSTE:
			doc.Network.STEs = append(doc.Network.STEs, xmlSTE{
				ID:        ids[id],
				SymbolSet: t.Class(id).String(),
				Start:     startAttr(t.Start(id)),
				Activate:  activations(id),
				Report:    report(id),
			})
		case automata.KindCounter:
			at := "latch"
			if !t.Latch(id) {
				at = "pulse"
			}
			doc.Network.Counters = append(doc.Network.Counters, xmlCounter{
				ID:       ids[id],
				Target:   t.Target(id),
				AtTarget: at,
				Activate: activations(id),
				Report:   report(id),
			})
		case automata.KindGate:
			g := xmlGate{ID: ids[id], Activate: activations(id), Report: report(id)}
			switch t.Op(id) {
			case automata.GateAnd:
				doc.Network.Ands = append(doc.Network.Ands, g)
			case automata.GateOr:
				doc.Network.Ors = append(doc.Network.Ors, g)
			case automata.GateNot:
				doc.Network.Nots = append(doc.Network.Nots, g)
			case automata.GateNor:
				doc.Network.Nors = append(doc.Network.Nors, g)
			case automata.GateNand:
				doc.Network.Nands = append(doc.Network.Nands, g)
			}
		}
	}

	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// Write marshals t to w.
func Write(w io.Writer, t *automata.Topology) error {
	data, err := Marshal(t)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Unmarshal parses an ANML document into a network. A document holding a
// macro definition or reference is refused, naming the first one.
func Unmarshal(data []byte) (*automata.Network, error) {
	var doc xmlANML
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	if len(doc.Macros) > 0 {
		return nil, fmt.Errorf("anml: <macro-definition id=%q>: macros are not supported", doc.Macros[0].ID)
	}
	if refs := doc.Network.MacroRefs; len(refs) > 0 {
		return nil, fmt.Errorf("anml: <macro-reference id=%q>: macros are not supported", refs[0].ID)
	}
	n := automata.NewNetwork(doc.Network.ID)
	ids := make(map[string]automata.ElementID)

	declare := func(id string, eid automata.ElementID) error {
		if _, dup := ids[id]; dup {
			return fmt.Errorf("anml: duplicate element id %q", id)
		}
		ids[id] = eid
		n.Element(eid).Name = id
		return nil
	}

	for _, s := range doc.Network.STEs {
		class, err := charclass.Parse(s.SymbolSet)
		if err != nil {
			return nil, fmt.Errorf("anml: element %q: %w", s.ID, err)
		}
		start, err := parseStart(s.Start)
		if err != nil {
			return nil, fmt.Errorf("anml: element %q: %w", s.ID, err)
		}
		if err := declare(s.ID, n.AddSTE(class, start)); err != nil {
			return nil, err
		}
	}
	for _, c := range doc.Network.Counters {
		eid := n.AddCounter(c.Target)
		n.Element(eid).Latch = c.AtTarget != "pulse"
		if err := declare(c.ID, eid); err != nil {
			return nil, err
		}
	}
	gateGroups := []struct {
		gates []xmlGate
		op    automata.GateOp
	}{
		{doc.Network.Ands, automata.GateAnd},
		{doc.Network.Ors, automata.GateOr},
		{doc.Network.Nots, automata.GateNot},
		{doc.Network.Nors, automata.GateNor},
		{doc.Network.Nands, automata.GateNand},
	}
	for _, grp := range gateGroups {
		for _, g := range grp.gates {
			if err := declare(g.ID, n.AddGate(grp.op)); err != nil {
				return nil, err
			}
		}
	}

	connect := func(srcID string, acts []xmlActivate) error {
		src := ids[srcID]
		for _, a := range acts {
			target := a.Element
			port := automata.PortIn
			switch {
			case strings.HasSuffix(target, ":cnt"):
				target, port = strings.TrimSuffix(target, ":cnt"), automata.PortCount
			case strings.HasSuffix(target, ":rst"):
				target, port = strings.TrimSuffix(target, ":rst"), automata.PortReset
			}
			dst, ok := ids[target]
			if !ok {
				return fmt.Errorf("anml: %q activates unknown element %q", srcID, a.Element)
			}
			n.Connect(src, dst, port)
		}
		return nil
	}
	setReport := func(id string, r *xmlReport) {
		if r == nil {
			return
		}
		code := 0
		if r.ReportCode != nil {
			code = *r.ReportCode
		}
		n.SetReport(ids[id], code)
	}

	for _, s := range doc.Network.STEs {
		if err := connect(s.ID, s.Activate); err != nil {
			return nil, err
		}
		setReport(s.ID, s.Report)
	}
	for _, c := range doc.Network.Counters {
		if err := connect(c.ID, c.Activate); err != nil {
			return nil, err
		}
		setReport(c.ID, c.Report)
	}
	for _, grp := range gateGroups {
		for _, g := range grp.gates {
			if err := connect(g.ID, g.Activate); err != nil {
				return nil, err
			}
			setReport(g.ID, g.Report)
		}
	}
	return n, nil
}

// LineCount returns the number of lines in the marshaled ANML for t, the
// "ANML LOC" metric of Table 4.
func LineCount(t *automata.Topology) (int, error) {
	data, err := Marshal(t)
	if err != nil {
		return 0, err
	}
	return strings.Count(string(data), "\n"), nil
}
