package place

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/charclass"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// stampedPairs is how many interleaved (cold, stamped) bank sweeps each
// floor takes the median of.
const stampedPairs = 9

// macroBank builds designs networks of families macro families each, every
// family instances literal chains of one length: structurally one shape
// repeated, with literals distinct per (design, family, instance,
// position), which is what a macro-generated rule pack compiles to. The
// networks come back frozen, so both sides time placement alone and place
// the same networks again on every sweep.
func macroBank(designs, families, instances int) []*automata.Network {
	nets := make([]*automata.Network, designs)
	for d := range nets {
		net := automata.NewNetwork(fmt.Sprintf("bank%02d", d))
		for f := 0; f < families; f++ {
			for i := 0; i < instances; i++ {
				prev := automata.NoElement
				for j := 0; j < 17+8*f; j++ {
					start := automata.StartNone
					if j == 0 {
						start = automata.StartAllInput
					}
					id := net.AddSTE(charclass.Single(byte('a'+(d+3*f+5*i+j)%26)), start)
					if prev != automata.NoElement {
						net.Connect(prev, id, automata.PortIn)
					}
					prev = id
				}
				net.SetReport(prev, 0)
			}
		}
		net.MustFreeze()
		nets[d] = net
	}
	return nets
}

// placeBank places every network of the bank under cfg and returns the
// elapsed time. It collects first, so neither side pays for the garbage
// the other left behind.
func placeBank(t *testing.T, nets []*automata.Network, cfg Config) time.Duration {
	t.Helper()
	runtime.GC()
	start := time.Now()
	for _, net := range nets {
		if _, err := Place(net, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestStampedPlacementFloor holds the stamping pipeline to its reason to
// exist: with a warm Stamper shared across a bank, placing the bank is a
// floor's worth faster than cold serial placement. Both sides run serially
// in this process, interleaved. Two banks guard the two ways a shape is
// reused:
//   - macro-bank: 64 instances of each family inside every design, so
//     63 of 64 stamp even without the shared cache (≈4× cold);
//   - manifest: one instance of each family per design, as a serving
//     manifest of rule variants holds, so only the cross-design cache
//     stamps (≈3× cold; a fresh Stamper per design runs at ≈0.85×).
func TestStampedPlacementFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation narrows stamped/cold to ≈2× on the macro bank (1.9–2.2 measured), below its 3× floor; plain go test checks the floors")
	}
	for _, bank := range []struct {
		name                         string
		designs, families, instances int
		floor                        float64
	}{
		{"macro-bank-4x8x64", 4, 8, 64, 3},
		{"manifest-64x8x1", 64, 8, 1, 2},
	} {
		t.Run(bank.name, func(t *testing.T) {
			nets := macroBank(bank.designs, bank.families, bank.instances)
			cold := Config{Parallelism: 1}
			stamped := Config{Parallelism: 1, Stamper: NewStamper()}
			placeBank(t, nets, stamped) // the first sweep pays each shape's one miss
			ratios := make([]float64, stampedPairs)
			for i := range ratios {
				var c, s time.Duration
				if i%2 == 0 {
					c, s = placeBank(t, nets, cold), placeBank(t, nets, stamped)
				} else {
					s, c = placeBank(t, nets, stamped), placeBank(t, nets, cold)
				}
				ratios[i] = float64(c) / float64(s)
			}
			sort.Float64s(ratios)
			ratio := ratios[len(ratios)/2]
			if ratio < bank.floor {
				t.Fatalf("stamped placement is %.2f× cold (median of pairs %.2f), below its %.1f× floor",
					ratio, ratios, bank.floor)
			}
			t.Logf("stamped placement %.2f× cold (floor %.1f×; shapes=%d hits=%d misses=%d)",
				ratio, bank.floor, stamped.Stamper.Shapes(), stamped.Stamper.Hits(), stamped.Stamper.Misses())
		})
	}
}
