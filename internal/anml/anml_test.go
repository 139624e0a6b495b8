package anml

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// sampleNetwork builds a network exercising every element kind and port.
func sampleNetwork() *automata.Network {
	n := automata.NewNetwork("sample")
	a := n.AddSTE(charclass.Single('a'), automata.StartAllInput)
	b := n.AddSTE(charclass.FromString("bc"), automata.StartNone)
	r := n.AddSTE(charclass.Single('r'), automata.StartOfData)
	c := n.AddCounter(3)
	and := n.AddGate(automata.GateAnd)
	inv := n.AddGate(automata.GateNot)
	or := n.AddGate(automata.GateOr)
	nor := n.AddGate(automata.GateNor)
	nand := n.AddGate(automata.GateNand)
	n.Connect(a, b, automata.PortIn)
	n.Connect(b, c, automata.PortCount)
	n.Connect(r, c, automata.PortReset)
	n.Connect(c, and, automata.PortIn)
	n.Connect(a, and, automata.PortIn)
	n.Connect(a, inv, automata.PortIn)
	n.Connect(inv, or, automata.PortIn)
	n.Connect(a, nor, automata.PortIn)
	n.Connect(a, nand, automata.PortIn)
	n.Connect(b, nand, automata.PortIn)
	n.Connect(and, b, automata.PortIn)
	n.SetReport(b, 42)
	n.SetReport(c, 7)
	n.SetReport(and, 1)
	return n
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	n := sampleNetwork()
	data, err := Marshal(n.MustFreeze())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if got.Name != n.Name {
		t.Fatalf("name %q != %q", got.Name, n.Name)
	}
	if got.Stats() != n.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", got.Stats(), n.Stats())
	}
	// Structural spot checks by ANML id.
	byName := map[string]*automata.Element{}
	got.Elements(func(e *automata.Element) { byName[e.Name] = e })
	if e := byName["ste0"]; e == nil || e.Start != automata.StartAllInput || !e.Class.Equal(charclass.Single('a')) {
		t.Fatalf("ste0 wrong: %+v", e)
	}
	if e := byName["cnt3"]; e == nil || e.Target != 3 || !e.Latch || !e.Report || e.ReportCode != 7 {
		t.Fatalf("cnt3 wrong: %+v", e)
	}
	if e := byName["gate5"]; e == nil || e.Op != automata.GateNot {
		t.Fatalf("gate5 wrong: %+v", e)
	}
	// Counter ports survived.
	cnt := byName["cnt3"]
	var hasCount, hasReset bool
	for _, in := range got.Ins(cnt.ID) {
		switch in.Port {
		case automata.PortCount:
			hasCount = true
		case automata.PortReset:
			hasReset = true
		}
	}
	if !hasCount || !hasReset {
		t.Fatal("counter ports lost in round trip")
	}
}

func TestRoundTripPreservesBehavior(t *testing.T) {
	n := automata.NewNetwork("beh")
	prev := automata.NoElement
	for i, ch := range []byte("rapid") {
		start := automata.StartNone
		if i == 0 {
			start = automata.StartAllInput
		}
		id := n.AddSTE(charclass.Single(ch), start)
		if prev != automata.NoElement {
			n.Connect(prev, id, automata.PortIn)
		}
		prev = id
	}
	n.SetReport(prev, 5)
	data, err := Marshal(n.MustFreeze())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxrapidyyrapid")
	r1, err := n.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := got.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) || len(r1) != 2 {
		t.Fatalf("reports: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i].Offset != r2[i].Offset || r1[i].Code != r2[i].Code {
			t.Fatalf("report %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestWriteRead(t *testing.T) {
	n := sampleNetwork()
	var buf bytes.Buffer
	if err := Write(&buf, n.MustFreeze()); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != n.Stats() {
		t.Fatal("Write/Unmarshal round trip changed stats")
	}
}

func TestMarshalUsesNames(t *testing.T) {
	n := automata.NewNetwork("named")
	id := n.AddSTE(charclass.Single('q'), automata.StartAllInput)
	n.Element(id).Name = "my_state"
	data, err := Marshal(n.MustFreeze())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `id="my_state"`) {
		t.Fatalf("custom name missing:\n%s", data)
	}
}

func TestMarshalDuplicateNames(t *testing.T) {
	n := automata.NewNetwork("dup")
	a := n.AddSTE(charclass.Single('a'), automata.StartAllInput)
	b := n.AddSTE(charclass.Single('b'), automata.StartNone)
	n.Element(a).Name = "same"
	n.Element(b).Name = "same"
	if _, err := Marshal(n.MustFreeze()); err == nil {
		t.Fatal("duplicate ids should fail to marshal")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`not xml at all`,
		`<anml version="1.0"><automata-network id="x"><state-transition-element id="a" symbol-set="[unclosed"/></automata-network></anml>`,
		`<anml version="1.0"><automata-network id="x"><state-transition-element id="a" symbol-set="[a]" start="bogus"/></automata-network></anml>`,
		`<anml version="1.0"><automata-network id="x"><state-transition-element id="a" symbol-set="[a]"><activate-on-match element="ghost"/></state-transition-element></automata-network></anml>`,
		`<anml version="1.0"><automata-network id="x"><state-transition-element id="a" symbol-set="[a]"/><state-transition-element id="a" symbol-set="[b]"/></automata-network></anml>`,
	}
	for i, in := range cases {
		if _, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestUnmarshalRefusesMacros: a macro definition or reference is refused
// by name and id, not skipped — skipping one would load a network without
// the elements it stands for.
func TestUnmarshalRefusesMacros(t *testing.T) {
	cases := map[string]string{
		`<macro-reference id="r1">`: `<anml version="1.0"><automata-network id="x">` +
			`<state-transition-element id="a" symbol-set="[a]" start="all-input"/>` +
			`<macro-reference id="r1" macro-id="m"><substitution parameter-name="%p" substitution-value="[b]"/></macro-reference>` +
			`</automata-network></anml>`,
		`<macro-definition id="m">`: `<anml version="1.0"><macro-definition id="m"><body>` +
			`<state-transition-element id="s" symbol-set="[a]" start="all-input"/>` +
			`</body></macro-definition><automata-network id="x"/></anml>`,
	}
	for elem, doc := range cases {
		n, err := Unmarshal([]byte(doc))
		if err == nil {
			t.Errorf("%s: loaded %d elements with a nil error, want a refusal", elem, n.Len())
			continue
		}
		if !strings.Contains(err.Error(), elem) {
			t.Errorf("%s: error %q does not name the element and its id", elem, err)
		}
	}
}

func TestLineCount(t *testing.T) {
	n := sampleNetwork()
	lc, err := LineCount(n.MustFreeze())
	if err != nil {
		t.Fatal(err)
	}
	data, _ := Marshal(n.MustFreeze())
	if want := strings.Count(string(data), "\n"); lc != want {
		t.Fatalf("LineCount = %d, want %d", lc, want)
	}
	if lc < n.Len() {
		t.Fatalf("LineCount %d implausibly small for %d elements", lc, n.Len())
	}
}
