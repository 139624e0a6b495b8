package automata

import (
	"testing"

	"repro/internal/charclass"
)

// buildChain returns a network matching the literal string s starting at
// the first input symbol, reporting on the last STE.
func buildChain(t *testing.T, s string, start StartKind) *Network {
	t.Helper()
	n := NewNetwork("chain")
	prev := NoElement
	for i := 0; i < len(s); i++ {
		k := StartNone
		if i == 0 {
			k = start
		}
		id := n.AddSTE(charclass.Single(s[i]), k)
		if prev != NoElement {
			n.Connect(prev, id, PortIn)
		}
		prev = id
	}
	n.SetReport(prev, 1)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func TestChainExactMatch(t *testing.T) {
	n := buildChain(t, "rapid", StartOfData)
	reports, err := n.Run([]byte("rapid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Offset != 4 {
		t.Fatalf("reports = %v, want single report at offset 4", reports)
	}
	reports, err = n.Run([]byte("tepid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("mismatch should not report, got %v", reports)
	}
	// Start-of-data anchoring: a later occurrence must not match.
	reports, _ = n.Run([]byte("xrapid"))
	if len(reports) != 0 {
		t.Fatalf("anchored chain reported on shifted input: %v", reports)
	}
}

func TestChainSlidingWindow(t *testing.T) {
	n := buildChain(t, "ab", StartAllInput)
	reports, err := n.Run([]byte("abcabab"))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 6}
	if len(reports) != len(want) {
		t.Fatalf("reports = %v, want offsets %v", reports, want)
	}
	for i, r := range reports {
		if r.Offset != want[i] {
			t.Fatalf("report %d at offset %d, want %d", i, r.Offset, want[i])
		}
	}
}

func TestSelfLoopStar(t *testing.T) {
	// [a] -> [*]+self-loop -> [b]: accepts a.*b
	n := NewNetwork("star")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	star := n.AddSTE(charclass.All(), StartNone)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.Connect(a, star, PortIn)
	n.Connect(star, star, PortIn)
	n.Connect(star, b, PortIn)
	n.Connect(a, b, PortIn) // allow "ab" directly
	n.SetReport(b, 7)
	reports, err := n.Run([]byte("axxb_b"))
	if err != nil {
		t.Fatal(err)
	}
	// b at offsets 3 and 5 should both report (star keeps the path alive).
	if len(reports) != 2 || reports[0].Offset != 3 || reports[1].Offset != 5 {
		t.Fatalf("reports = %v", reports)
	}
	if reports[0].Code != 7 {
		t.Fatalf("report code = %d, want 7", reports[0].Code)
	}
}

func TestCounterThresholdLatch(t *testing.T) {
	// Count 'x' symbols anywhere; latch and report from the counter when
	// the third is seen.
	n := NewNetwork("count")
	x := n.AddSTE(charclass.Single('x'), StartAllInput)
	c := n.AddCounter(3)
	n.Connect(x, c, PortCount)
	n.SetReport(c, 0)
	reports, err := n.Run([]byte("xaxbxcx"))
	if err != nil {
		t.Fatal(err)
	}
	// Third x at offset 4; latched output stays active for every
	// subsequent cycle (offsets 4,5,6).
	if len(reports) != 3 || reports[0].Offset != 4 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestCounterReset(t *testing.T) {
	// Reset on 'r'; reset dominates simultaneous count.
	n := NewNetwork("reset")
	x := n.AddSTE(charclass.Single('x'), StartAllInput)
	r := n.AddSTE(charclass.Single('r'), StartAllInput)
	c := n.AddCounter(2)
	n.Connect(x, c, PortCount)
	n.Connect(r, c, PortReset)
	n.SetReport(c, 0)
	reports, err := n.Run([]byte("xrxx"))
	if err != nil {
		t.Fatal(err)
	}
	// x(1), reset(0), x(1), x(2): report only at offset 3.
	if len(reports) != 1 || reports[0].Offset != 3 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestGateAndInverter(t *testing.T) {
	// AND of two STEs activating on the same cycle.
	n := NewNetwork("and")
	a := n.AddSTE(charclass.FromString("ab"), StartAllInput)
	b := n.AddSTE(charclass.FromString("bc"), StartAllInput)
	and := n.AddGate(GateAnd)
	n.Connect(a, and, PortIn)
	n.Connect(b, and, PortIn)
	n.SetReport(and, 0)
	reports, err := n.Run([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	// Only 'b' activates both STEs.
	if len(reports) != 1 || reports[0].Offset != 1 {
		t.Fatalf("AND reports = %v", reports)
	}

	// Inverter: active exactly when its input is not.
	n2 := NewNetwork("not")
	s := n2.AddSTE(charclass.Single('a'), StartAllInput)
	inv := n2.AddGate(GateNot)
	n2.Connect(s, inv, PortIn)
	n2.SetReport(inv, 0)
	reports, err = n2.Run([]byte("aba"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Offset != 1 {
		t.Fatalf("NOT reports = %v", reports)
	}
}

func TestGateFeedsSTE(t *testing.T) {
	// Gate output enables an STE on the next cycle.
	n := NewNetwork("gate-ste")
	a := n.AddSTE(charclass.Single('a'), StartAllInput)
	or := n.AddGate(GateOr)
	n.Connect(a, or, PortIn)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.Connect(or, b, PortIn)
	n.SetReport(b, 0)
	reports, err := n.Run([]byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Offset != 1 {
		t.Fatalf("reports = %v", reports)
	}
}

func TestValidateErrors(t *testing.T) {
	// Empty network.
	if err := NewNetwork("e").Validate(); err == nil {
		t.Error("empty network should fail validation")
	}
	// No start STE.
	n := NewNetwork("nostart")
	n.AddSTE(charclass.Single('a'), StartNone)
	if err := n.Validate(); err == nil {
		t.Error("network without start should fail")
	}
	// Counter without count input.
	n2 := NewNetwork("nocount")
	n2.AddSTE(charclass.Single('a'), StartAllInput)
	n2.AddCounter(1)
	if err := n2.Validate(); err == nil {
		t.Error("counter without count input should fail")
	}
	// Activation edge into counter.
	n3 := NewNetwork("badport")
	s := n3.AddSTE(charclass.Single('a'), StartAllInput)
	c := n3.AddCounter(1)
	n3.Connect(s, c, PortIn)
	if err := n3.Validate(); err == nil {
		t.Error("PortIn edge into counter should fail")
	}
	// Count port into STE.
	n4 := NewNetwork("badport2")
	s4 := n4.AddSTE(charclass.Single('a'), StartAllInput)
	s5 := n4.AddSTE(charclass.Single('b'), StartNone)
	n4.Connect(s4, s5, PortCount)
	if err := n4.Validate(); err == nil {
		t.Error("PortCount edge into STE should fail")
	}
	// Combinational cycle between gates.
	n5 := NewNetwork("cycle")
	s6 := n5.AddSTE(charclass.Single('a'), StartAllInput)
	g1 := n5.AddGate(GateOr)
	g2 := n5.AddGate(GateOr)
	n5.Connect(s6, g1, PortIn)
	n5.Connect(g1, g2, PortIn)
	n5.Connect(g2, g1, PortIn)
	if err := n5.Validate(); err == nil {
		t.Error("gate cycle should fail validation")
	}
	// Inverter fan-in != 1.
	n6 := NewNetwork("inv2")
	a6 := n6.AddSTE(charclass.Single('a'), StartAllInput)
	b6 := n6.AddSTE(charclass.Single('b'), StartAllInput)
	inv := n6.AddGate(GateNot)
	n6.Connect(a6, inv, PortIn)
	n6.Connect(b6, inv, PortIn)
	if err := n6.Validate(); err == nil {
		t.Error("inverter with fan-in 2 should fail")
	}
	// Counter with non-positive target.
	n7 := NewNetwork("target")
	a7 := n7.AddSTE(charclass.Single('a'), StartAllInput)
	c7 := n7.AddCounter(0)
	n7.Connect(a7, c7, PortCount)
	if err := n7.Validate(); err == nil {
		t.Error("counter target 0 should fail")
	}
	// Empty character class.
	n8 := NewNetwork("emptyclass")
	n8.AddSTE(charclass.Empty(), StartAllInput)
	if err := n8.Validate(); err == nil {
		t.Error("empty class should fail")
	}
}

func TestStats(t *testing.T) {
	n := NewNetwork("stats")
	a := n.AddSTE(charclass.Single('a'), StartAllInput)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	c := n.AddCounter(2)
	g := n.AddGate(GateAnd)
	n.Connect(a, b, PortIn)
	n.Connect(b, c, PortCount)
	n.Connect(c, g, PortIn)
	n.SetReport(g, 0)
	s := n.Stats()
	if s.STEs != 2 || s.Counters != 1 || s.Gates != 1 || s.Edges != 3 || s.Reporting != 1 || s.Starts != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestClockDivisor(t *testing.T) {
	n := NewNetwork("div")
	a := n.AddSTE(charclass.Single('a'), StartAllInput)
	c := n.AddCounter(2)
	n.Connect(a, c, PortCount)
	if n.ClockDivisor() != 1 {
		t.Fatal("counter without gate should not divide clock")
	}
	g := n.AddGate(GateAnd)
	n.Connect(c, g, PortIn)
	if n.ClockDivisor() != 2 {
		t.Fatal("counter feeding gate should divide clock by 2")
	}
}

func TestMergeAndClone(t *testing.T) {
	a := buildChain(t, "ab", StartOfData)
	b := buildChain(t, "cd", StartOfData)
	offset := a.Merge(b)
	if offset != 2 || a.Len() != 4 {
		t.Fatalf("merge offset=%d len=%d", offset, a.Len())
	}
	reports, err := a.Run([]byte("cd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0] != (Report{Offset: 1, Code: 1}) {
		t.Fatalf("merged network reports = %v", reports)
	}
	c := a.Clone()
	if c.Len() != a.Len() || c.Stats() != a.Stats() {
		t.Fatal("clone differs from original")
	}
}

func TestSimulatorResetAndOffset(t *testing.T) {
	n := buildChain(t, "ab", StartOfData)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run([]byte("ab"))
	if sim.Offset() != 2 || len(sim.Reports()) != 1 {
		t.Fatalf("offset=%d reports=%v", sim.Offset(), sim.Reports())
	}
	sim.Reset()
	if sim.Offset() != 0 || sim.Reports() != nil {
		t.Fatal("Reset did not clear state")
	}
	// Counter state must clear too.
	n2 := NewNetwork("c")
	x := n2.AddSTE(charclass.Single('x'), StartAllInput)
	c := n2.AddCounter(2)
	n2.Connect(x, c, PortCount)
	n2.SetReport(c, 0)
	sim2, err := NewSimulator(n2)
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run([]byte("xx"))
	if len(sim2.Reports()) != 1 {
		t.Fatalf("want 1 report, got %v", sim2.Reports())
	}
	if got := sim2.Run([]byte("x")); len(got) != 0 {
		t.Fatalf("counter not reset between runs: %v", got)
	}
}

func TestDisconnect(t *testing.T) {
	n := NewNetwork("d")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.Connect(a, b, PortIn)
	n.Connect(a, b, PortIn) // duplicate ignored
	if len(n.Outs(a)) != 1 {
		t.Fatalf("duplicate edge not deduped: %v", n.Outs(a))
	}
	n.Disconnect(a, b, PortIn)
	if len(n.Outs(a)) != 0 || len(n.Ins(b)) != 0 {
		t.Fatal("Disconnect left edges behind")
	}
	n.Disconnect(a, b, PortIn) // removing absent edge is a no-op
}
