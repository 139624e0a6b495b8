package automata

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/charclass"
)

// TestFastSimulatorAgrees cross-checks the fast path against the reference
// simulator on random networks and inputs.
func TestFastSimulatorAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n, _ := randomChainNetwork(rng)
		input := make([]byte, 60)
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		slow, err := n.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := n.RunFast(input)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("trial %d: fast %v != slow %v", trial, fast, slow)
		}
	}
}

// TestFastSimulatorSpecials covers counters and gates on the fast path.
func TestFastSimulatorSpecials(t *testing.T) {
	n := NewNetwork("special")
	x := n.AddSTE(charclass.Single('x'), StartAllInput)
	r := n.AddSTE(charclass.Single('r'), StartAllInput)
	c := n.AddCounter(2)
	inv := n.AddGate(GateNot)
	and := n.AddGate(GateAnd)
	n.Connect(x, c, PortCount)
	n.Connect(r, c, PortReset)
	n.Connect(c, inv, PortIn)
	n.Connect(x, and, PortIn)
	n.Connect(inv, and, PortIn)
	follow := n.AddSTE(charclass.Single('z'), StartNone)
	n.Connect(and, follow, PortIn)
	n.SetReport(c, 1)
	n.SetReport(follow, 2)

	for _, input := range []string{"xx", "xrxx", "xz", "xxz", "rrxz", "xxxxz"} {
		slow, err := n.Run([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := n.RunFast([]byte(input))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("input %q: fast %v != slow %v", input, fast, slow)
		}
	}
}

func TestFastSimulatorResetBetweenRuns(t *testing.T) {
	n := buildChain(t, "ab", StartOfData)
	s, err := NewFastSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Run([]byte("ab")); len(got) != 1 {
		t.Fatalf("first run reports = %v", got)
	}
	if got := s.Run([]byte("xb")); len(got) != 0 {
		t.Fatalf("state leaked across runs: %v", got)
	}
}

func TestFastSimulatorInvalidNetwork(t *testing.T) {
	if _, err := NewNetwork("e").RunFast([]byte("x")); err == nil {
		t.Fatal("empty network should fail")
	}
}

// BenchmarkSimulators compares the reference and fast simulators on a
// many-pattern sliding design (a Brill-like workload).
func BenchmarkSimulators(b *testing.B) {
	n := NewNetwork("bench")
	rng := rand.New(rand.NewSource(3))
	for p := 0; p < 200; p++ {
		prev := NoElement
		length := 3 + rng.Intn(4)
		for i := 0; i < length; i++ {
			start := StartNone
			if i == 0 {
				start = StartAllInput
			}
			id := n.AddSTE(charclass.Single(byte('a'+rng.Intn(8))), start)
			if prev != NoElement {
				n.Connect(prev, id, PortIn)
			}
			prev = id
		}
		n.SetReport(prev, p)
	}
	input := make([]byte, 1<<14)
	for i := range input {
		input[i] = byte('a' + rng.Intn(8))
	}
	b.Run("reference", func(b *testing.B) {
		sim, err := NewSimulator(n)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			sim.Run(input)
		}
	})
	b.Run("fast", func(b *testing.B) {
		sim, err := NewFastSimulator(n)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			sim.Run(input)
		}
	})
}

// Clone is the fan-out primitive servers call per request; it promises a
// constant number of allocations independent of design size.
func TestCloneAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, _ := randomChainNetwork(rng)
	fast := n.MustFreeze().NewFastSimulator()
	if allocs := testing.AllocsPerRun(50, func() { fast.Clone() }); allocs > 4 {
		t.Fatalf("FastSimulator.Clone allocs = %v, want <= 4", allocs)
	}
}

// BenchmarkFastSimulatorSingleStream walks 64 streams of 16 KiB, one after
// another, through an Exact-shaped small design: a few unanchored literal
// chains, the many-short-records shape a serving fleet sees.
func BenchmarkFastSimulatorSingleStream(b *testing.B) {
	n := NewNetwork("bench")
	for _, word := range []string{"needle", "haystack", "pattern"} {
		prev := NoElement
		for i := 0; i < len(word); i++ {
			start := StartNone
			if i == 0 {
				start = StartAllInput
			}
			id := n.AddSTE(charclass.Single(word[i]), start)
			if prev != NoElement {
				n.Connect(prev, id, PortIn)
			}
			prev = id
		}
		n.SetReport(prev, 0)
	}
	top, err := n.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	const nstreams, length = 64, 1 << 14
	rng := rand.New(rand.NewSource(2))
	streams := make([][]byte, nstreams)
	for i := range streams {
		s := make([]byte, length)
		for j := range s {
			s[j] = byte('a' + rng.Intn(26))
		}
		copy(s[rng.Intn(length-8):], "needle")
		streams[i] = s
	}
	fast := top.NewFastSimulator()
	b.SetBytes(nstreams * length)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			fast.Run(s)
		}
	}
}
