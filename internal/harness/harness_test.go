package harness

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/place"
)

// prPairs is how many interleaved (baseline, tessellated) P&R pairs
// prSpeedup takes the median of.
const prPairs = 9

// prSpeedup times Table6's two P&R passes on one benchmark at n
// instances, the baseline's global placement of the full hand design and
// the RAPID tessellation, in prPairs interleaved pairs after one untimed
// pass of each, and returns the median baseline/tessellated ratio with
// every pair's.
func prSpeedup(t *testing.T, name string, n int) (float64, []float64) {
	t.Helper()
	var b *bench.Benchmark
	for _, c := range bench.All() {
		if c.Name == name {
			b = c
		}
	}
	full, err := b.Hand(n)
	if err != nil {
		t.Fatal(err)
	}
	src, args := b.RAPID(n)
	prog, err := core.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	baseline := func() time.Duration {
		start := time.Now()
		if _, err := place.Place(place.DeviceNetwork(full), place.Config{}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	tessellated := func() time.Duration {
		start := time.Now()
		if _, err := prog.Tessellate(args); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	baseline()
	tessellated()
	ratios := make([]float64, prPairs)
	for i := range ratios {
		var base, tess time.Duration
		if i%2 == 0 {
			base, tess = baseline(), tessellated()
		} else {
			tess, base = tessellated(), baseline()
		}
		ratios[i] = float64(base) / float64(tess)
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], ratios
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// 5 benchmarks × 2 versions + Brill regex row.
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	byKey := map[string]Table4Row{}
	for _, r := range rows {
		byKey[r.Benchmark+"/"+string(r.Version)] = r
		if r.STEs <= 0 || r.ANMLLOC <= 0 || r.DeviceSTEs <= 0 || r.LOC <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// Paper shape: RAPID programs are much shorter than hand generators.
	for _, name := range []string{"ARM", "Brill", "Exact", "Gappy", "MOTOMATA"} {
		r, h := byKey[name+"/R"], byKey[name+"/H"]
		if r.LOC >= h.LOC {
			t.Errorf("%s: RAPID LOC %d not smaller than hand LOC %d", name, r.LOC, h.LOC)
		}
	}
	// Paper shape: the RAPID MOTOMATA counter design generates far fewer
	// STEs than the positional-encoding hand design (roughly half or
	// better).
	if r, h := byKey["MOTOMATA/R"], byKey["MOTOMATA/H"]; r.STEs*2 > h.STEs {
		t.Errorf("MOTOMATA: RAPID STEs %d vs hand %d, want <= half", r.STEs, h.STEs)
	}
	// Paper shape: Gappy is the one benchmark where RAPID generates more
	// STEs than the hand design.
	if r, h := byKey["Gappy/R"], byKey["Gappy/H"]; r.STEs <= h.STEs {
		t.Errorf("Gappy: RAPID STEs %d should exceed hand %d", r.STEs, h.STEs)
	}
	// Device optimization must not grow chains benchmarks.
	for _, key := range []string{"Exact/R", "Exact/H", "Brill/R", "Brill/H"} {
		if row := byKey[key]; row.DeviceSTEs > row.STEs {
			t.Errorf("%s: device STEs %d exceed generated %d", key, row.DeviceSTEs, row.STEs)
		}
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "MOTOMATA") || !strings.Contains(out, "Device STEs") {
		t.Error("FormatTable4 output malformed")
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	byKey := map[string]Table5Row{}
	for _, r := range rows {
		byKey[r.Benchmark+"/"+string(r.Version)] = r
		if r.TotalBlocks < 1 || r.STEUtil <= 0 || r.STEUtil > 1 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// Paper shape: the RAPID MOTOMATA design pays clock divisor 2 for its
	// counter+logic, while the positional-encoding hand design does not —
	// but uses several times more blocks.
	r, h := byKey["MOTOMATA/R"], byKey["MOTOMATA/H"]
	if r.ClockDivisor != 2 {
		t.Errorf("MOTOMATA/R divisor = %d, want 2", r.ClockDivisor)
	}
	if h.ClockDivisor != 1 {
		t.Errorf("MOTOMATA/H divisor = %d, want 1", h.ClockDivisor)
	}
	// All other benchmarks run at full clock.
	for _, key := range []string{"ARM/R", "ARM/H", "Brill/R", "Brill/H", "Exact/R", "Exact/H", "Gappy/R", "Gappy/H"} {
		if byKey[key].ClockDivisor != 1 {
			t.Errorf("%s divisor = %d, want 1", key, byKey[key].ClockDivisor)
		}
	}
	// Small designs occupy one block.
	for _, key := range []string{"ARM/R", "ARM/H", "Exact/R", "Exact/H"} {
		if byKey[key].TotalBlocks != 1 {
			t.Errorf("%s blocks = %d, want 1", key, byKey[key].TotalBlocks)
		}
	}
	out := FormatTable5(rows)
	if !strings.Contains(out, "Clock Div.") {
		t.Error("FormatTable5 output malformed")
	}
}

func TestTable6SmallScale(t *testing.T) {
	rows, err := Table6(0.01) // 1% of the paper's problem sizes
	if err != nil {
		t.Fatal(err)
	}
	// 4 benchmarks (Brill excluded) × 3 strategies.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byKey := map[string]Table6Row{}
	for _, r := range rows {
		byKey[r.Benchmark+"/"+string(r.Strategy)] = r
		if r.TotalBlocks < 1 || r.TotalTime <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	for _, name := range []string{"ARM", "Exact", "Gappy", "MOTOMATA"} {
		b := byKey[name+"/B"]
		r := byKey[name+"/R"]
		p := byKey[name+"/P"]
		// Tessellation never uses more blocks than pre-compiled stamping.
		// Gappy is excluded: in the paper the pre-compiled flow could not
		// place Gappy at all, and in our reproduction the hand Gappy
		// design is tighter than the RAPID one (see EXPERIMENTS.md).
		if name != "Gappy" && r.TotalBlocks > p.TotalBlocks {
			t.Errorf("%s: tessellation %d blocks > pre-compiled %d", name, r.TotalBlocks, p.TotalBlocks)
		}
		// Tessellation P&R is faster than the baseline's global pass. One
		// sample of each (b and r) is a fraction of a millisecond that a
		// stall on a busy host can decide alone, so the claim is the median
		// of interleaved pairs.
		if ratio, ratios := prSpeedup(t, name, b.ProblemSize); ratio <= 1 {
			t.Errorf("%s: tessellation P&R not faster than baseline: median baseline/tessellated %.2f× (pairs %.2f)",
				name, ratio, ratios)
		}
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "Place&Route") {
		t.Error("FormatTable6 output malformed")
	}
}

func TestTable6ScaleValidation(t *testing.T) {
	if _, err := Table6(0); err == nil {
		t.Error("scale 0 should fail")
	}
	if _, err := Table6(1.5); err == nil {
		t.Error("scale > 1 should fail")
	}
}
