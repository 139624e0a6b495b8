package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	rapid "repro"
	"repro/internal/lang/value"
)

// TestCheckKnownProgram: the full five-check battery passes on a small
// handcrafted program with counters (so the snapshot check exercises
// counter state too).
func TestCheckKnownProgram(t *testing.T) {
	src := `network (String s) {
  Counter c;
  whenever ('a' == input()) { c.count(); }
  whenever (START_OF_INPUT == input()) {
    foreach (char x : s) x == input();
    c >= 2;
    report;
  }
}
`
	c := &Case{
		Source: src,
		Args:   []value.Value{value.Str("ab")},
		Inputs: [][]byte{
			{},
			[]byte("\xffab"),
			[]byte("a\xffab\xffaab"),
			[]byte("aaab\xffab"),
		},
	}
	out, err := Check(c)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, f := range out.Failures {
		t.Errorf("unexpected divergence: %s", f)
	}
	if out.Checks == 0 {
		t.Fatal("no checks ran")
	}
}

// TestCheckRunsEveryBackendOnCounters: on a counter design every backend
// kind constructs and is compared, and nothing is skipped as unavailable.
// One input of length ≥ 2 makes exactly one oracle check, one check per
// non-reference backend kind, one engine-batch check, and one each for the
// printer, ANML and snapshot round-trips; the case adds one long-stream
// segment check and two long-stream lazy-DFA cache checks. So a backend
// that did not run shows up as a short count.
func TestCheckRunsEveryBackendOnCounters(t *testing.T) {
	src := `network () {
  Counter c;
  whenever ('a' == input()) { c.count(); }
  { 'a' == input(); c >= 1; report; }
}
`
	c := &Case{Source: src, Inputs: [][]byte{[]byte("aaa")}}
	out, err := Check(c)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if want := 1 + (len(rapid.BackendKinds()) - 1) + 1 + 3 + 1 + 2; out.Checks != want {
		t.Errorf("checks = %d, want %d (every backend kind once)", out.Checks, want)
	}
	for reason := range out.Skips {
		if strings.HasPrefix(reason, "backend-unavailable:") {
			t.Errorf("unexpected skip %q: %v", reason, out.Skips)
		}
	}
	for _, f := range out.Failures {
		t.Errorf("unexpected divergence: %s", f)
	}
}

// TestSoakSmoke: a deterministic mini-campaign finds no divergences.
func TestSoakSmoke(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	res, err := Soak(SoakConfig{Seed: 1, Programs: n, Inputs: 4})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if res.Programs != n {
		t.Errorf("ran %d programs, want %d", res.Programs, n)
	}
	if res.Checks == 0 {
		t.Fatal("no checks ran")
	}
	for _, f := range res.Failures {
		t.Errorf("divergence (seed %d, %s): %s\n--- shrunk ---\n%s\ninput: %q",
			f.Seed, f.Check, f.Detail, f.Source, f.Input)
	}
}

// TestCorpusRoundTrip: write → read preserves the case.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "case.rapid")
	src := "network (String s, int n) {\n  { foreach (char x : s) x == input(); report; }\n}\n"
	args := []value.Value{value.Str("hi"), value.Int(3)}
	inputs := [][]byte{{}, []byte("\xffhi"), {0xFF, 'h'}}
	expected := [][]int{nil, {2}, nil}
	if err := WriteCorpusFile(path, src, args, inputs, expected); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCorpusFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Args) != 2 || string(got.Args[0].(value.Str)) != "hi" || int64(got.Args[1].(value.Int)) != 3 {
		t.Errorf("args did not round-trip: %v", got.Args)
	}
	if len(got.Inputs) != 3 || string(got.Inputs[1]) != "\xffhi" {
		t.Errorf("inputs did not round-trip: %q", got.Inputs)
	}
	if len(got.Expected[1]) != 1 || got.Expected[1][0] != 2 {
		t.Errorf("expected offsets did not round-trip: %v", got.Expected)
	}
	if !strings.HasSuffix(got.Source, src) {
		t.Errorf("source not preserved as file suffix")
	}
	// The reproducer file itself is valid RAPID: directives are comments.
	data, _ := os.ReadFile(path)
	c := &Case{Source: string(data), Args: args, Inputs: inputs}
	if _, err := Check(c); err != nil {
		t.Errorf("reproducer file is not a checkable case: %v", err)
	}
}

// TestDiffReports: runs that differ only in order and repeats are one set,
// and a real difference lists each missing and extra report in order.
func TestDiffReports(t *testing.T) {
	r := func(off, code int) rapid.Report { return rapid.Report{Offset: off, Code: code} }
	if d := diffReports([]rapid.Report{r(1, 0), r(3, 2), r(3, 1)}, []rapid.Report{r(3, 1), r(1, 0), r(3, 2), r(1, 0)}); d != "" {
		t.Fatalf("one set in two orders: %q", d)
	}
	want := "report sets differ: missing (offset=3 code=1), (offset=9 code=0) extra (offset=4 code=0)"
	if d := diffReports([]rapid.Report{r(9, 0), r(3, 1), r(1, 0)}, []rapid.Report{r(4, 0), r(1, 0)}); d != want {
		t.Fatalf("got %q, want %q", d, want)
	}
}
