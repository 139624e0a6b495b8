package automata

import (
	"math/rand"
	"testing"

	"repro/internal/charclass"
)

// mergePass runs one merge pass, prefixes when byIns, on a copy of n and
// drops the merged elements.
func mergePass(n *Network, byIns bool) *Network {
	work := n.Clone()
	m := newMerger(work)
	for m.begin(byIns); m.round(); {
	}
	return work.compact(m.live)
}

func TestPruneUnreachable(t *testing.T) {
	n := NewNetwork("p")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	n.AddSTE(charclass.Single('z'), StartNone) // orphan, unreachable
	n.Connect(a, b, PortIn)
	n.SetReport(b, 0)
	out := n.compact(n.liveMask())
	if out.Len() != 2 {
		t.Fatalf("pruned len = %d, want 2", out.Len())
	}
	reports, err := out.Run([]byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("behavior changed: %v", reports)
	}
}

func TestPruneNonProductive(t *testing.T) {
	n := NewNetwork("p")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	dead := n.AddSTE(charclass.Single('c'), StartNone)
	n.Connect(a, b, PortIn)
	n.Connect(a, dead, PortIn) // reachable but leads nowhere
	n.SetReport(b, 0)
	out := n.compact(n.liveMask())
	if out.Len() != 2 {
		t.Fatalf("pruned len = %d, want 2", out.Len())
	}
}

func TestMergePrefixes(t *testing.T) {
	// Two identical 'a' start states each leading to distinct suffixes
	// should merge into one shared prefix.
	n := NewNetwork("m")
	a1 := n.AddSTE(charclass.Single('a'), StartOfData)
	a2 := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartNone)
	c := n.AddSTE(charclass.Single('c'), StartNone)
	n.Connect(a1, b, PortIn)
	n.Connect(a2, c, PortIn)
	n.SetReport(b, 1)
	n.SetReport(c, 2)
	out := mergePass(n, true)
	if got := out.Stats().STEs; got != 3 {
		t.Fatalf("after prefix merge STEs = %d, want 3", got)
	}
	reports, err := out.Run([]byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Code != 1 {
		t.Fatalf("behavior changed: %v", reports)
	}
	reports, _ = out.Run([]byte("ac"))
	if len(reports) != 1 || reports[0].Code != 2 {
		t.Fatalf("behavior changed: %v", reports)
	}
}

func TestMergeSuffixes(t *testing.T) {
	// Distinct prefixes converging on identical reporting tails merge the
	// tails.
	n := NewNetwork("m")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	b := n.AddSTE(charclass.Single('b'), StartOfData)
	t1 := n.AddSTE(charclass.Single('z'), StartNone)
	t2 := n.AddSTE(charclass.Single('z'), StartNone)
	n.Connect(a, t1, PortIn)
	n.Connect(b, t2, PortIn)
	n.SetReport(t1, 9)
	n.SetReport(t2, 9)
	out := mergePass(n, false)
	if got := out.Stats().STEs; got != 3 {
		t.Fatalf("after suffix merge STEs = %d, want 3", got)
	}
	for _, in := range []string{"az", "bz"} {
		reports, err := out.Run([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || reports[0].Offset != 1 {
			t.Fatalf("input %q reports %v", in, reports)
		}
	}
}

func TestMergeKeepsDistinctReportCodes(t *testing.T) {
	n := NewNetwork("m")
	a := n.AddSTE(charclass.Single('a'), StartOfData)
	t1 := n.AddSTE(charclass.Single('z'), StartNone)
	t2 := n.AddSTE(charclass.Single('z'), StartNone)
	n.Connect(a, t1, PortIn)
	n.Connect(a, t2, PortIn)
	n.SetReport(t1, 1)
	n.SetReport(t2, 2)
	out := mergePass(n, true)
	if got := out.Stats().STEs; got != 3 {
		t.Fatalf("STEs with distinct report codes must not merge: %d", got)
	}
}

func TestSplitHighFanIn(t *testing.T) {
	n := NewNetwork("f")
	target := n.AddSTE(charclass.Single('z'), StartNone)
	n.SetReport(target, 0)
	const sources = 10
	for i := 0; i < sources; i++ {
		s := n.AddSTE(charclass.Single('a'), StartAllInput)
		n.Connect(s, target, PortIn)
	}
	out := n.Clone()
	out.splitHighFanIn(4)
	// 10 in-edges with limit 4: original keeps 4, copies take 4 and 2.
	if got := out.Stats().STEs; got != sources+3 {
		t.Fatalf("after split STEs = %d, want %d", got, sources+3)
	}
	// Every STE now has fan-in <= 4.
	out.Elements(func(e *Element) {
		if e.Kind == KindSTE && len(out.Ins(e.ID)) > 4 {
			t.Fatalf("element %d fan-in %d exceeds limit", e.ID, len(out.Ins(e.ID)))
		}
	})
	// Behavior preserved: 'a' then 'z' reports once per active path; with
	// duplication the report element count changes but offsets must match.
	rep1, err := n.Run([]byte("az"))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := out.Run([]byte("az"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1) == 0 || len(rep2) == 0 || rep1[0].Offset != rep2[0].Offset {
		t.Fatalf("split changed behavior: %v vs %v", rep1, rep2)
	}
}

// randomChainNetwork builds a random set of anchored literal chains.
func randomChainNetwork(rng *rand.Rand) (*Network, []string) {
	n := NewNetwork("rand")
	count := 1 + rng.Intn(5)
	var words []string
	for w := 0; w < count; w++ {
		length := 1 + rng.Intn(6)
		word := make([]byte, length)
		for i := range word {
			word[i] = byte('a' + rng.Intn(3))
		}
		words = append(words, string(word))
		prev := NoElement
		for i, ch := range word {
			start := StartNone
			if i == 0 {
				start = StartAllInput
			}
			id := n.AddSTE(charclass.Single(ch), start)
			if prev != NoElement {
				n.Connect(prev, id, PortIn)
			}
			prev = id
		}
		n.SetReport(prev, 0)
	}
	return n, words
}

// TestOptimizePreservesBehavior cross-checks the full device pipeline
// against the original network on random inputs: the set of report offsets
// must be identical.
func TestOptimizePreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n, _ := randomChainNetwork(rng)
		opt := n.OptimizeForDevice(16)
		input := make([]byte, 40)
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		r1, err := n.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := opt.Run(input)
		if err != nil {
			t.Fatal(err)
		}
		offsets := func(rs []Report) map[int]bool {
			m := map[int]bool{}
			for _, r := range rs {
				m[r.Offset] = true
			}
			return m
		}
		o1, o2 := offsets(r1), offsets(r2)
		if len(o1) != len(o2) {
			t.Fatalf("trial %d: offsets differ: %v vs %v", trial, o1, o2)
		}
		for k := range o1 {
			if !o2[k] {
				t.Fatalf("trial %d: missing offset %d after optimization", trial, k)
			}
		}
	}
}

func TestOptimizeShrinksSharedPrefixes(t *testing.T) {
	// "abc" and "abd" anchored chains share "ab": 6 STEs -> 4.
	n := NewNetwork("share")
	for _, w := range []string{"abc", "abd"} {
		prev := NoElement
		for i := 0; i < len(w); i++ {
			start := StartNone
			if i == 0 {
				start = StartOfData
			}
			id := n.AddSTE(charclass.Single(w[i]), start)
			if prev != NoElement {
				n.Connect(prev, id, PortIn)
			}
			prev = id
		}
		n.SetReport(prev, 0)
	}
	out := n.OptimizeForDevice(0)
	if got := out.Stats().STEs; got != 4 {
		t.Fatalf("shared-prefix STEs = %d, want 4", got)
	}
}

// TestOptimizeMatchesReferenceRandom holds OptimizeForDevice to the
// reference pipeline byte for byte, and its merge index to its invariant,
// on random chain sets and quick-check word matchers, the random half of
// TestOptimizeMatchesReference.
func TestOptimizeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		n, _ := randomChainNetwork(rng)
		if trial%2 == 1 {
			n, _ = wordNetwork(rng.Uint32())
		}
		got := n.OptimizeForDevice(16)
		if err := SameNetwork(got, ReferenceOptimizeForDevice(n, 16)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if checked, err := CheckedOptimizeForDevice(n, 16); err != nil {
			t.Fatalf("trial %d: merge index: %v", trial, err)
		} else if err := SameNetwork(got, checked); err != nil {
			t.Fatalf("trial %d: checked optimiser differs: %v", trial, err)
		}
	}
}
