package rapid

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func mustProgram(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustDesign(t *testing.T, src string, args ...Value) *Design {
	t.Helper()
	design, err := mustProgram(t, src).Compile(args...)
	if err != nil {
		t.Fatal(err)
	}
	return design
}

const exactSrc = `
macro m(String s) {
  foreach (char c : s) c == input();
  report;
}
network (String[] ws) {
  some (String w : ws) m(w);
}`

func TestRunner(t *testing.T) {
	design := mustDesign(t, exactSrc, Strings([]string{"abc"}))
	runner, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	// The design is anchored at stream start (no sliding idiom).
	for trial := 0; trial < 3; trial++ { // reusable across runs
		reports := mustRun(t, runner, []byte("abc"))
		if got := Offsets(reports); !reflect.DeepEqual(got, []int{2}) {
			t.Fatalf("trial %d: offsets = %v", trial, got)
		}
		if design.Site(reports[0].Code) == "" {
			t.Error("runner report code has no site")
		}
	}
	// Runner agrees with the reference path.
	want, err := design.RunBytes([]byte("abcabc"))
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, runner, []byte("abcabc"))
	if !reflect.DeepEqual(Offsets(got), Offsets(want)) {
		t.Fatalf("runner %v != reference %v", Offsets(got), Offsets(want))
	}
}

func TestDesignWriteDot(t *testing.T) {
	design := mustDesign(t, exactSrc, Strings([]string{"ab"}))
	var buf bytes.Buffer
	if err := design.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatalf("DOT output malformed:\n%s", buf.String())
	}
}

func TestDesignFindWitness(t *testing.T) {
	design := mustDesign(t, exactSrc, Strings([]string{"xyz"}))
	w, err := design.FindWitness(16)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := design.RunBytes(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatalf("witness %q does not report", w)
	}
}

func TestDesignEquivalent(t *testing.T) {
	a := mustDesign(t, exactSrc, Strings([]string{"abc"}))
	b := mustDesign(t, exactSrc, Strings([]string{"abc"}))
	if err := a.Equivalent(b); err != nil {
		t.Fatalf("identical designs not equivalent: %v", err)
	}
	c := mustDesign(t, exactSrc, Strings([]string{"abd"}))
	if err := a.Equivalent(c); err == nil {
		t.Fatal("different designs reported equivalent")
	}
	// The optimizer is behavior-preserving — provably.
	big := mustDesign(t, exactSrc, Strings([]string{"abc", "abd", "ab"}))
	if err := big.Equivalent(big.OptimizeForDevice()); err != nil {
		t.Fatalf("optimizer broke equivalence: %v", err)
	}
}

// TestCounterComparisonMatrix exercises every Table 2 row end to end,
// including degenerate thresholds.
func TestCounterComparisonMatrix(t *testing.T) {
	cases := []struct {
		op     string
		n      int
		inputs map[string]bool // stream of x's and filler → expect report at last filler?
	}{
		{"<", 2, map[string]bool{"zz": true, "xzz": true, "xxzz": false}},
		{"<=", 1, map[string]bool{"zz": true, "xzz": true, "xxzz": false}},
		{">", 1, map[string]bool{"xzz": false, "xxzz": true}},
		{">=", 2, map[string]bool{"xzz": false, "xxzz": true}},
		{"==", 1, map[string]bool{"zz": false, "xzz": true, "xxzz": false}},
		{"!=", 1, map[string]bool{"zz": true, "xzz": false, "xxzz": true}},
		{">=", 0, map[string]bool{"zz": true}}, // trivially true
		{"<", 0, map[string]bool{"zz": false}}, // trivially false
		{"==", 0, map[string]bool{"zz": true, "xzz": false}},
		{"!=", 0, map[string]bool{"zz": false, "xzz": true}},
	}
	for _, tc := range cases {
		// Two parallel network statements share the counter: one counts
		// 'x' symbols, the other checks the threshold one symbol after a
		// 'q' trigger.
		src := `
network () {
  Counter c;
  whenever ('x' == input()) { c.count(); }
  whenever ('q' == input()) {
    ALL_INPUT == input();
    c ` + tc.op + ` ` + itoa(tc.n) + `;
    report;
  }
}`
		prog := mustProgram(t, src)
		design, err := prog.Compile()
		if err != nil {
			t.Fatalf("op %s %d: %v", tc.op, tc.n, err)
		}
		for input, want := range tc.inputs {
			// Prefix the counter stream, then the 'q'-triggered check:
			// q then one filler symbol, then the check fires.
			full := input + "q."
			reports, err := design.RunBytes([]byte(full))
			if err != nil {
				t.Fatal(err)
			}
			got := len(reports) > 0
			if got != want {
				t.Errorf("c %s %d over %q: report=%v, want %v", tc.op, tc.n, full, got, want)
			}
			// Interpreter agrees.
			offsets, err := prog.Interpret(nil, []byte(full))
			if err != nil {
				t.Fatal(err)
			}
			if (len(offsets) > 0) != want {
				t.Errorf("interp: c %s %d over %q: report=%v, want %v", tc.op, tc.n, full, len(offsets) > 0, want)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
