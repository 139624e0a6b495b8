package rapid

// Benchmarks regenerating the paper's evaluation, one per table, plus the
// runtime-linearity claim and the ablation studies listed in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the reproduced table values (blocks, STEs, ratios);
// wall-clock time per op carries the compile-time comparisons.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/place"
)

// BenchmarkTable4 regenerates the program-size and STE-usage comparison
// (Table 4) for all five benchmarks and both (or three) versions.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				prefix := fmt.Sprintf("%s/%s_", r.Benchmark, r.Version)
				b.ReportMetric(float64(r.STEs), prefix+"STEs")
				b.ReportMetric(float64(r.DeviceSTEs), prefix+"devSTEs")
			}
		}
	}
}

// BenchmarkTable5 regenerates the placement-and-routing statistics
// (Table 5).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				prefix := fmt.Sprintf("%s/%s_", r.Benchmark, r.Version)
				b.ReportMetric(float64(r.TotalBlocks), prefix+"blocks")
				b.ReportMetric(100*r.STEUtil, prefix+"util%")
			}
		}
	}
}

// BenchmarkTable6 regenerates the tessellation experiment (Table 6) at 2%
// of the paper's problem sizes (use cmd/rapidbench -table 6 -scale 1 for
// the full run). The headline result is the ratio between the baseline's
// and tessellation's place-and-route times.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table6(0.02)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			byKey := map[string]harness.Table6Row{}
			for _, r := range rows {
				byKey[r.Benchmark+"/"+string(r.Strategy)] = r
				b.ReportMetric(float64(r.TotalBlocks),
					fmt.Sprintf("%s/%s_blocks", r.Benchmark, r.Strategy))
			}
			for _, name := range []string{"ARM", "Exact", "Gappy", "MOTOMATA"} {
				base := byKey[name+"/B"].PRTime
				tess := byKey[name+"/R"].PRTime
				if tess > 0 {
					b.ReportMetric(float64(base)/float64(tess),
						name+"/PR_speedup_x")
				}
			}
		}
	}
}

// BenchmarkStreamLinearity verifies the Section 7 claim that runtime is
// linear in the stream length: the reported ns/symbol must stay flat as
// streams grow (compare the -benchtime runs at each size).
func BenchmarkStreamLinearity(b *testing.B) {
	prog, err := Parse(`
macro m(String s) {
  foreach (char c : s) c == input();
  report;
}
macro slide() {
  either { ; } orelse { whenever (ALL_INPUT == input()) ; }
}
network (String[] ws) {
  {
    slide();
    some (String w : ws) m(w);
  }
}`)
	if err != nil {
		b.Fatal(err)
	}
	design, err := prog.Compile(Strings([]string{"pattern", "another", "third"}))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{1 << 12, 1 << 14, 1 << 16} {
		input := make([]byte, size)
		for i := range input {
			input[i] = byte('a' + rng.Intn(26))
		}
		b.Run(fmt.Sprintf("symbols=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := design.RunBytes(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures staged-compilation speed on the Figure 1
// program at growing instance counts.
func BenchmarkCompile(b *testing.B) {
	prog, err := Parse(`
macro hamming_distance(String s, int d) {
  Counter cnt;
  foreach (char c : s)
    if (c != input()) cnt.count();
  cnt <= d;
  report;
}
network (String[] comparisons) {
  some (String s : comparisons)
    hamming_distance(s, 2);
}`)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16, 256} {
		words := make([]string, n)
		for i := range words {
			words[i] = "rapid"
		}
		args := Strings(words)
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Compile(args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCounterVsPositional compares the two MOTOMATA designs
// (Section 5.3's tradeoff): the RAPID counter design against the
// hand-crafted positional encoding. The counter design is several times
// smaller but forces clock divisor 2.
func BenchmarkAblationCounterVsPositional(b *testing.B) {
	m := bench.Motomata()
	for i := 0; i < b.N; i++ {
		src, args := m.RAPID(1)
		prog, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		var vals []Value
		vals = append(vals, args...)
		counterDesign, err := prog.Compile(vals...)
		if err != nil {
			b.Fatal(err)
		}
		positional, err := m.Hand(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(counterDesign.Stats().STEs), "counter_STEs")
			b.ReportMetric(float64(positional.Stats().STEs), "positional_STEs")
			b.ReportMetric(float64(counterDesign.Stats().ClockDivisor), "counter_clockdiv")
			b.ReportMetric(float64(positional.ClockDivisor()), "positional_clockdiv")
		}
	}
}

// BenchmarkAblationClassMerge measures the Figure 7 special case: an OR of
// single-symbol comparisons merges into one STE character class, versus
// the unmerged either/orelse bifurcation.
func BenchmarkAblationClassMerge(b *testing.B) {
	merged, err := Parse(`
macro m() {
  'a' == input() || 'b' == input() || 'c' == input();
  'z' == input();
  report;
}
network () { m(); }`)
	if err != nil {
		b.Fatal(err)
	}
	unmerged, err := Parse(`
macro m() {
  either { 'a' == input(); } orelse { 'b' == input(); } orelse { 'c' == input(); }
  'z' == input();
  report;
}
network () { m(); }`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		dm, err := merged.Compile()
		if err != nil {
			b.Fatal(err)
		}
		du, err := unmerged.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(dm.Stats().STEs), "merged_STEs")
			b.ReportMetric(float64(du.Stats().STEs), "unmerged_STEs")
		}
	}
}

// BenchmarkAblationTessellationDensity compares the auto-tuned tile density
// against naive one-instance-per-block tiling (Section 6's "iteratively add
// copies" step).
func BenchmarkAblationTessellationDensity(b *testing.B) {
	e := bench.Exact()
	src, args := e.RAPID(1000)
	prog, err := core.Load(src)
	if err != nil {
		b.Fatal(err)
	}
	spec, ok := prog.DetectTileable(args)
	if !ok {
		b.Fatal("exact benchmark should be tileable")
	}
	unit, err := prog.Compile(spec.UnitArgs(args), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := place.Tessellate(place.DeviceNetwork(unit.Network), spec.Count)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.TotalBlocks), "autotuned_blocks")
			b.ReportMetric(float64(spec.Count), "naive_blocks") // one instance per block
			b.ReportMetric(float64(r.PerBlock), "instances_per_block")
		}
	}
}

// BenchmarkAblationPrefixMerge measures the device-optimization pipeline's
// effect (prefix/suffix sharing) on a pattern set with common prefixes —
// the source of the generated-vs-device STE deltas in Table 4.
func BenchmarkAblationPrefixMerge(b *testing.B) {
	words := make([]string, 64)
	for i := range words {
		words[i] = fmt.Sprintf("PREFIX%02d", i) // shared 6-byte prefix
	}
	prog, err := Parse(`
macro m(String s) {
  foreach (char c : s) c == input();
  report;
}
network (String[] ws) {
  some (String w : ws) m(w);
}`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		design, err := prog.Compile(Strings(words))
		if err != nil {
			b.Fatal(err)
		}
		opt := design.OptimizeForDevice()
		if i == 0 {
			b.ReportMetric(float64(design.Stats().STEs), "generated_STEs")
			b.ReportMetric(float64(opt.Stats().STEs), "device_STEs")
		}
	}
}
