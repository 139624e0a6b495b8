package rapid

import (
	"strings"
	"testing"
)

// TestArtifactRoundTrip proves a compiled design survives the artifact
// envelope: identical reports (offset, code, and site) on both sides.
func TestArtifactRoundTrip(t *testing.T) {
	prog, err := Parse(`
macro find(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String[] pats) { some (String p : pats) find(p); }
`)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(Strings([]string{"abc", "bcd"}))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxabcdxx")
	want, err := design.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test design produced no reports")
	}

	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.RunBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored design reported %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: restored %+v != original %+v", i, got[i], want[i])
		}
	}
}

// TestArtifactUnknownFormatRejected: a future-format envelope must fail
// loudly so cache readers recompile instead of misinterpreting it.
func TestArtifactUnknownFormatRejected(t *testing.T) {
	design, err := CompileRegexSet([]string{"ab+c"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"format": 2`, `"format": 99`, 1)
	if bad == string(data) {
		t.Fatal("format field not found in envelope")
	}
	if _, err := UnmarshalArtifact([]byte(bad)); err == nil {
		t.Fatal("unknown artifact format was accepted")
	}
}
