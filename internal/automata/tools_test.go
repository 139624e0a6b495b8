package automata

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/charclass"
)

func TestPartition(t *testing.T) {
	n := NewNetwork("p")
	n.AddSTE(charclass.Single('a'), StartAllInput)
	n.AddSTE(charclass.FromString("bc"), StartNone)
	p := Partition(n.MustFreeze())
	// Groups: {a}, {b,c}, everything else → 3 representatives.
	if len(p.Representatives) != 3 {
		t.Fatalf("representatives = %d, want 3", len(p.Representatives))
	}
	if p.GroupOf['b'] != p.GroupOf['c'] {
		t.Error("b and c should share a group")
	}
	if p.GroupOf['a'] == p.GroupOf['b'] || p.GroupOf['a'] == p.GroupOf['z'] {
		t.Error("a should be alone")
	}
	if p.GroupOf['z'] != p.GroupOf['q'] {
		t.Error("unused symbols should share a group")
	}
}

func TestPartitionMultipleNetworks(t *testing.T) {
	n1 := NewNetwork("a")
	n1.AddSTE(charclass.Single('a'), StartAllInput)
	n2 := NewNetwork("b")
	n2.AddSTE(charclass.Single('b'), StartAllInput)
	p := Partition(n1.MustFreeze(), n2.MustFreeze())
	if len(p.Representatives) != 3 {
		t.Fatalf("joint representatives = %d, want 3", len(p.Representatives))
	}
}

func TestFindWitnessChain(t *testing.T) {
	n := buildChain(t, "rapid", StartOfData)
	w, err := n.FindWitness(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != "rapid" {
		t.Fatalf("witness = %q, want \"rapid\"", w)
	}
	// The witness must actually trigger a report.
	reports, err := n.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("witness does not report")
	}
}

func TestFindWitnessCounter(t *testing.T) {
	// Report after three 'x' symbols: shortest witness is "xxx".
	n := NewNetwork("c")
	x := n.AddSTE(charclass.Single('x'), StartAllInput)
	c := n.AddCounter(3)
	n.Connect(x, c, PortCount)
	n.SetReport(c, 0)
	w, err := n.FindWitness(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != "xxx" {
		t.Fatalf("witness = %q, want \"xxx\"", w)
	}
}

func TestFindWitnessSpecificCode(t *testing.T) {
	n := NewNetwork("codes")
	a := n.AddSTE(charclass.Single('a'), StartAllInput)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.Connect(a, b, PortIn)
	n.SetReport(a, 1)
	n.SetReport(b, 2)
	code := 2
	w, err := n.FindWitness(&WitnessOptions{Code: &code})
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != "ab" {
		t.Fatalf("witness for code 2 = %q, want \"ab\"", w)
	}
}

func TestFindWitnessNone(t *testing.T) {
	// An STE that can never be reached: requires 'a' then 'b' but the
	// second state's class is empty of the reachable alphabet... simplest:
	// no reporting element at all is invalid, so use an unreachable report.
	n := NewNetwork("none")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	dead := n.AddSTE(charclass.Single('b'), StartNone) // never enabled
	n.SetReport(dead, 0)
	_ = a
	if _, err := n.FindWitness(&WitnessOptions{MaxLength: 8}); err == nil {
		t.Fatal("unreachable report should have no witness")
	}
}

func TestEquivalentIdentity(t *testing.T) {
	a := buildChain(t, "abc", StartAllInput)
	b := buildChain(t, "abc", StartAllInput)
	if err := Equivalent(a.MustFreeze(), b.MustFreeze()); err != nil {
		t.Fatalf("identical chains not equivalent: %v", err)
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := buildChain(t, "abc", StartAllInput)
	b := buildChain(t, "abd", StartAllInput)
	err := Equivalent(a.MustFreeze(), b.MustFreeze())
	if err == nil {
		t.Fatal("different chains reported equivalent")
	}
	if !strings.Contains(err.Error(), "differ on input") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestEquivalentComparesCodes: designs that report at the same offsets
// with different codes differ, and the counterexample names both code
// sets: one STE reporting code 1 against code 2, and two STEs that swap
// their codes.
func TestEquivalentComparesCodes(t *testing.T) {
	one := func(code int) *Network {
		n := NewNetwork(fmt.Sprintf("code-%d", code))
		n.SetReport(n.AddSTE(charclass.Single('a'), StartAllInput), code)
		return n
	}
	two := func(codeA, codeB int) *Network {
		n := NewNetwork(fmt.Sprintf("a%d-b%d", codeA, codeB))
		n.SetReport(n.AddSTE(charclass.Single('a'), StartAllInput), codeA)
		n.SetReport(n.AddSTE(charclass.Single('b'), StartAllInput), codeB)
		return n
	}
	for _, c := range []struct {
		a, b *Network
		want string
	}{
		{one(1), one(2), `reports codes [1], "code-2" reports codes [2]`},
		{two(1, 2), two(2, 1), "reports codes ["},
	} {
		err := Equivalent(c.a.MustFreeze(), c.b.MustFreeze())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s vs %s: err %v, want it to contain %q", c.a.Name, c.b.Name, err, c.want)
		}
	}
	if err := Equivalent(two(1, 2).MustFreeze(), two(1, 2).MustFreeze()); err != nil {
		t.Fatalf("identical coded designs differ: %v", err)
	}
}

func TestEquivalentRejectsSpecials(t *testing.T) {
	n := NewNetwork("c")
	x := n.AddSTE(charclass.Single('x'), StartAllInput)
	c := n.AddCounter(1)
	n.Connect(x, c, PortCount)
	n.SetReport(c, 0)
	if err := Equivalent(n.MustFreeze(), n.MustFreeze()); err != ErrHasSpecials {
		t.Fatalf("err = %v, want ErrHasSpecials", err)
	}
}

// TestOptimizeProvablyEquivalent verifies the device optimization pipeline
// formally (not by sampling) on random counter-free networks.
func TestOptimizeProvablyEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 30; trial++ {
		n, _ := randomChainNetwork(rng)
		opt := n.OptimizeForDevice(16)
		if err := Equivalent(n.MustFreeze(), opt.MustFreeze()); err != nil {
			t.Fatalf("trial %d: optimization changed behavior: %v", trial, err)
		}
	}
}

func TestEquivalentStartKinds(t *testing.T) {
	// Anchored vs unanchored single-symbol matchers differ on shifted
	// input.
	a := buildChain(t, "x", StartOfData)
	b := buildChain(t, "x", StartAllInput)
	if err := Equivalent(a.MustFreeze(), b.MustFreeze()); err == nil {
		t.Fatal("anchored and sliding designs reported equivalent")
	}
}

func TestWriteDot(t *testing.T) {
	n := NewNetwork("viz")
	a := n.AddSTE(charclass.Single('a'), StartAllInput)
	c := n.AddCounter(2)
	g := n.AddGate(GateAnd)
	r := n.AddSTE(charclass.Single('r'), StartOfData)
	n.Connect(a, c, PortCount)
	n.Connect(r, c, PortReset)
	n.Connect(c, g, PortIn)
	n.Connect(a, g, PortIn)
	n.SetReport(g, 0)
	var buf bytes.Buffer
	if err := n.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"digraph \"viz\"", "circle", "box", "diamond",
		`label="cnt"`, `label="rst"`, "cnt >= 2", "AND",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

func TestTrace(t *testing.T) {
	n := buildChain(t, "ab", StartOfData)
	trace, err := n.Trace([]byte("abx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3 {
		t.Fatalf("cycles = %d", len(trace))
	}
	if len(trace[0].Active) != 1 || len(trace[1].Active) != 1 || len(trace[2].Active) != 0 {
		t.Fatalf("active counts = %d %d %d", len(trace[0].Active), len(trace[1].Active), len(trace[2].Active))
	}
	if len(trace[1].Reports) != 1 || trace[1].Reports[0].Offset != 1 {
		t.Fatalf("reports = %v", trace[1].Reports)
	}
	var buf bytes.Buffer
	if err := n.WriteTrace(&buf, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REPORT") || !strings.Contains(out, "active=1") {
		t.Fatalf("trace output malformed:\n%s", out)
	}
}

// TestEquivalentAllocatesPerNewPair pins where the joint search allocates:
// on enqueueing a new configuration pair, never on an expansion that lands
// on a pair already seen. An unanchored 8-letter chain has 9 reachable
// pairs (prefix progress 0..8) and 9 symbol classes, so 81 expansions find
// 9 new pairs; allocating successor vectors and a witness per expansion
// cost 243 allocations here where per-pair costs 27.
func TestEquivalentAllocatesPerNewPair(t *testing.T) {
	a := buildChain(t, "abcdefgh", StartAllInput).MustFreeze()
	b := buildChain(t, "abcdefgh", StartAllInput).MustFreeze()
	a.Kernel() // built once and cached; not part of the search
	b.Kernel()
	total := testing.AllocsPerRun(20, func() {
		if err := Equivalent(a, b); err != nil {
			t.Fatal(err)
		}
	})
	setup := testing.AllocsPerRun(20, func() { Partition(a, b) })
	if search := total - setup; search > 60 {
		t.Fatalf("joint search allocs = %v (total %v - partition %v), want <= 60: it allocates per expansion again", search, total, setup)
	}
}
