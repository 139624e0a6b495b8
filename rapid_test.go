package rapid

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// mustRun runs a backend over input and fails the test on error — for
// the many sites where the run is expected to succeed.
func mustRun(t *testing.T, r interface {
	Run(context.Context, []byte) ([]Report, error)
}, input []byte) []Report {
	t.Helper()
	reports, err := r.Run(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

const hammingSrc = `
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
}`

func TestParseCompileRun(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Params(); !reflect.DeepEqual(got, []string{"comparisons"}) {
		t.Fatalf("Params = %v", got)
	}
	design, err := prog.Compile(Strings([]string{"rapid"}))
	if err != nil {
		t.Fatal(err)
	}
	stats := design.Stats()
	if stats.STEs == 0 || stats.Counters != 1 || stats.ClockDivisor != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	reports, err := design.RunBytes([]byte("tepid"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Offsets(reports); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("offsets = %v", got)
	}
	// The report's code resolves to its site.
	if design.Site(reports[0].Code) == "" {
		t.Error("report site missing")
	}
}

func TestInterpretMatchesDevice(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{Strings([]string{"rapid", "party"})}
	design, err := prog.Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"rapid", "tepid", "zzzzz", "part", "partyrapid"} {
		want, err := prog.Interpret(args, []byte(in))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := design.RunBytes([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		got := Offsets(reports)
		if len(got) != len(want) {
			t.Fatalf("input %q: device %v != interp %v", in, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("input %q: device %v != interp %v", in, got, want)
			}
		}
	}
}

func TestANMLRoundTrip(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.CompileNamed("hamming", Strings([]string{"rapid"}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := design.ANML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `id="hamming"`) {
		t.Fatalf("ANML missing network name:\n%.200s", data)
	}
	loaded, err := LoadANML(data)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := design.RunBytes([]byte("rapid"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.RunBytes([]byte("rapid"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Offsets(r1), Offsets(r2)) {
		t.Fatalf("round trip changed behavior: %v vs %v", Offsets(r1), Offsets(r2))
	}
	var buf bytes.Buffer
	if err := design.WriteANML(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(data) {
		t.Error("WriteANML output differs from ANML()")
	}
}

func TestOptimizeForDevice(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(Strings([]string{"rapid", "rapid"}))
	if err != nil {
		t.Fatal(err)
	}
	opt := design.OptimizeForDevice()
	if opt.Stats().STEs >= design.Stats().STEs {
		t.Fatalf("optimization did not shrink duplicate designs: %d vs %d",
			opt.Stats().STEs, design.Stats().STEs)
	}
}

func TestPlaceAndRoute(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(Strings([]string{"rapid"}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := design.PlaceAndRoute()
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBlocks != 1 || p.ClockDivisor != 2 {
		t.Fatalf("placement = %+v", p)
	}
	if rt := p.EstimatedRuntime(133_000_000); rt.Seconds() < 1.9 || rt.Seconds() > 2.1 {
		t.Fatalf("estimated runtime = %v, want ~2s at divisor 2", rt)
	}
}

func TestTessellate(t *testing.T) {
	prog, err := Parse(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]string, 64)
	for i := range words {
		words[i] = "rapid"
	}
	tess, err := prog.Tessellate(Strings(words))
	if err != nil {
		t.Fatal(err)
	}
	if tess.Instances != 64 || tess.InstancesPerBlock < 1 || tess.TotalBlocks < 1 {
		t.Fatalf("tessellation = %+v", tess)
	}
	if tess.BlockDesign.Stats().STEs == 0 {
		t.Fatal("block design empty")
	}
}

func TestCompileRegexSet(t *testing.T) {
	design, err := CompileRegexSet([]string{"ra+pid"})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := design.RunBytes([]byte("xxraapid"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Offsets(reports); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("offsets = %v", got)
	}
	set, err := CompileRegexSet([]string{"ab", "cd"})
	if err != nil {
		t.Fatal(err)
	}
	reports, err = set.RunBytes([]byte("abcd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || set.Site(reports[0].Code) == "" {
		t.Fatalf("set reports = %v", reports)
	}
}

func TestValuesFromJSON(t *testing.T) {
	vals, err := ValuesFromJSON([]byte(`[["rapid","tepid"], 5, true, "x"]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("vals = %v", vals)
	}
	if !reflect.DeepEqual(vals[0], Strings([]string{"rapid", "tepid"})) {
		t.Fatalf("vals[0] = %v", vals[0])
	}
	if vals[1] != Int(5) || vals[2] != Bool(true) || vals[3] != Str("x") {
		t.Fatalf("vals = %v", vals)
	}
	for _, bad := range []string{`{"a":1}`, `[1.5]`, `[null]`, `not json`} {
		if _, err := ValuesFromJSON([]byte(bad)); err == nil {
			t.Errorf("ValuesFromJSON(%q) should fail", bad)
		}
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := Parse("not a program"); err == nil {
		t.Error("syntax error not surfaced")
	}
	if _, err := Parse("network () { ghost(); }"); err == nil {
		t.Error("semantic error not surfaced")
	}
	if _, err := ParseFile("/nonexistent/path.rapid"); err == nil {
		t.Error("missing file not surfaced")
	}
}

func TestValueConstructors(t *testing.T) {
	arr := Array(Int(1), Str("a"), Char('x'))
	vals, ok := arr.(interface{ String() string })
	if !ok || vals.String() == "" {
		t.Fatal("Array constructor broken")
	}
	if Ints([]int{1, 2}).String() != "[1, 2]" {
		t.Fatalf("Ints = %v", Ints([]int{1, 2}))
	}
}

func TestOffsets(t *testing.T) {
	at := func(offsets ...int) []Report {
		var rs []Report
		for i, o := range offsets {
			rs = append(rs, Report{Offset: o, Code: i})
		}
		return rs
	}
	for _, tc := range []struct {
		name string
		in   []Report
		want []int
	}{
		{"nil", nil, nil},
		{"empty", []Report{}, nil},
		{"single", at(7), []int{7}},
		{"sorted", at(1, 4, 9), []int{1, 4, 9}},
		{"duplicates", at(3, 3, 5, 5, 5), []int{3, 5}},
		{"unsorted with duplicates", at(9, 2, 9, 0, 2), []int{0, 2, 9}},
	} {
		if got := Offsets(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Offsets = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// TestWarmRunnerRunAllocs pins what a warm device-tier run allocates: the
// simulator's report slice, returned as is, with no copy into a second
// report type (the copy was one more allocation). The input reports once,
// so the slice is one allocation.
func TestWarmRunnerRunAllocs(t *testing.T) {
	runner, err := mustDesign(t, exactSrc, Strings([]string{"abc"})).NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abc")
	if got := mustRun(t, runner, input); len(got) != 1 {
		t.Fatalf("%d reports, want 1", len(got))
	}
	if allocs := testing.AllocsPerRun(100, func() { runner.Run(context.Background(), input) }); allocs != 1 {
		t.Fatalf("warm Runner.Run made %.1f allocations, want 1", allocs)
	}
}

// TestPaperDesignsOneReportSet: on the five paper designs at one instance,
// the reference simulator (Design.Run and the reference backend), the
// device runner and the engine return one canonical report set.
func TestPaperDesignsOneReportSet(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.RAPID(1)
			design := mustDesign(t, src, args...)
			input := b.Input(rand.New(rand.NewSource(50)), 4096)
			want, err := design.RunBytes(input)
			if err != nil {
				t.Fatal(err)
			}
			want = Canonical(want)
			if len(want) == 0 {
				t.Fatal("the input reports nothing")
			}
			runner, err := design.NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := design.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := design.Backend(BackendReference)
			if err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func() ([]Report, error){
				"Runner.Run": func() ([]Report, error) { return runner.Run(context.Background(), input) },
				"Engine.Run": func() ([]Report, error) { return eng.Run(context.Background(), input) },
				"reference":  func() ([]Report, error) { return ref.Match(context.Background(), input) },
			} {
				got, err := run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got = Canonical(slices.Clone(got)); !slices.Equal(got, want) {
					t.Errorf("%s: %d canonical reports, Design.Run %d", name, len(got), len(want))
				}
			}
		})
	}
}
