package place

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// placementKey is the comparable surface of a Placement: everything but
// the network pointer.
type placementKey struct {
	BlockOf  []int
	RowOf    []int
	Physical []int
	Stamped  int
	Metrics  Metrics
}

func keyOf(p *Placement) placementKey {
	return placementKey{
		BlockOf:  p.BlockOf,
		RowOf:    p.RowOf,
		Physical: p.PhysicalBlocks,
		Stamped:  p.Stamped,
		Metrics:  p.Metrics,
	}
}

// TestPlaceParallelDeterminism pins the tentpole guarantee: the placement
// is a pure function of the network and the non-Parallelism Config
// fields. 300 chains × 20 STEs is large enough to split into multiple
// groups, so the worker pool genuinely runs concurrently under -cpu>1.
func TestPlaceParallelDeterminism(t *testing.T) {
	var want placementKey
	for i, par := range []int{1, 2, 4, 8, 0} {
		// Fresh network per run: Place freezes the one passed in.
		p, err := Place(manyChains(300, 20), Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = keyOf(p)
			continue
		}
		if !reflect.DeepEqual(keyOf(p), want) {
			t.Fatalf("Parallelism=%d placement differs from serial", par)
		}
	}
}

// TestPlaceParallelDeterminismWithStamper repeats the determinism check
// with the stamping path active (fresh stamper per run so cache state
// does not differ between runs).
func TestPlaceParallelDeterminismWithStamper(t *testing.T) {
	var want placementKey
	for i, par := range []int{1, 4, 0} {
		p, err := Place(manyChains(300, 20), Config{
			Parallelism: par, Stamper: NewStamper(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Stamped == 0 {
			t.Fatal("repeated shapes did not stamp")
		}
		if i == 0 {
			want = keyOf(p)
			continue
		}
		if !reflect.DeepEqual(keyOf(p), want) {
			t.Fatalf("Parallelism=%d stamped placement differs from serial", par)
		}
	}
}

// bigNamedChains builds n block-filling chains (200 STEs each), the first
// element of chain i named rule<i>.
func bigNamedChains(t *testing.T, n int) *automata.Network {
	t.Helper()
	out := automata.NewNetwork("rules")
	for i := 0; i < n; i++ {
		c := automata.NewNetwork("rule")
		prev := automata.NoElement
		for j := 0; j < 200; j++ {
			start := automata.StartNone
			if j == 0 {
				start = automata.StartAllInput
			}
			id := c.AddSTE(charclass.Single(byte('a'+(i+j)%26)), start)
			if prev != automata.NoElement {
				c.Connect(prev, id, automata.PortIn)
			}
			prev = id
		}
		c.SetReport(prev, i)
		base := out.Merge(c)
		out.Element(base).Name = ruleName(i)
	}
	return out
}

func ruleName(i int) string {
	return "rule" + string(rune('A'+i))
}

// TestCapacityErrorNamesFailingComponent is the attribution regression:
// the error must name the component that opened the first block without a
// physical home — not whichever component merged last — and the
// attribution must be identical at every parallelism level.
func TestCapacityErrorNamesFailingComponent(t *testing.T) {
	// 20 chains of 200 STEs: one block each (two don't fit), two
	// placement groups. With 5 physical blocks, logical block 5 — opened
	// by the 6th chain — is the first without a home.
	for _, par := range []int{1, 4, 8} {
		_, err := Place(bigNamedChains(t, 20), Config{
			MaxBlocks: 5, Parallelism: par,
		})
		var ce *CapacityError
		if !errors.As(err, &ce) {
			t.Fatalf("Parallelism=%d: err = %v, want *CapacityError", par, err)
		}
		if ce.Component != ruleName(5) {
			t.Fatalf("Parallelism=%d: component = %q, want %q", par, ce.Component, ruleName(5))
		}
		if ce.Design != "rules" {
			t.Fatalf("design = %q, want %q", ce.Design, "rules")
		}
		if !strings.Contains(ce.Error(), ruleName(5)) {
			t.Fatalf("error text does not name the component: %v", ce)
		}
	}
}

// TestComponentsMatchesPlacePartition pins the exported Components view:
// deterministic order, full coverage, broadcast exclusion.
func TestComponentsMatchesPlacePartition(t *testing.T) {
	net := manyChains(10, 8)
	top, err := net.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	comps := Components(top)
	if len(comps) != 10 {
		t.Fatalf("components = %d, want 10", len(comps))
	}
	seen := make([]bool, top.Len())
	for _, comp := range comps {
		for _, id := range comp {
			if seen[id] {
				t.Fatalf("element %d in two components", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("element %d in no component", id)
		}
	}
	// Chain contiguity: each chain's elements appear in id order.
	for _, comp := range comps {
		for i := 1; i < len(comp); i++ {
			if comp[i] != comp[i-1]+1 {
				t.Fatalf("chain component not contiguous: %v", comp)
			}
		}
	}
}
