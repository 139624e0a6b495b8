package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rapid "repro"
	"repro/internal/serve"
)

// TestFailoverBackendRefused: "failover" names no backend — replica
// failover is the gateway's. rapidrun -backend failover exits 1 with
// exactly the typed *rapid.UnknownBackendError's text, listing the three
// kinds; a -designs manifest entry still carrying a "backend" key is
// refused at its file:line, since designs take no backend name at all.
func TestFailoverBackendRefused(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.rapid")
	const source = `
macro m(String s) {
  foreach (char c : s) c == input();
  report;
}
network (String[] ws) { some (String w : ws) m(w); }`
	if err := os.WriteFile(src, []byte(source), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("rapidrun -backend", func(t *testing.T) {
		bin := filepath.Join(dir, "rapidrun")
		if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/rapidrun").CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		var stderr strings.Builder
		run := exec.Command(bin, "-src", src, "-args", `[["x"]]`, "-text", "abc", "-backend", "failover")
		run.Stderr = &stderr
		err := run.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Fatalf("rapidrun -backend failover: %v, want exit status 1", err)
		}
		want := "rapidrun: " + (&rapid.UnknownBackendError{Got: "failover"}).Error()
		if got := strings.TrimSpace(stderr.String()); got != want {
			t.Fatalf("stderr %q, want exactly %q", got, want)
		}
		if !strings.HasSuffix(want, "(valid kinds: device, lazy-dfa, reference)") {
			t.Fatalf("typed error %q does not list the three kinds", want)
		}
	})
	t.Run("rapidserve -designs", func(t *testing.T) {
		path := filepath.Join(dir, "designs.json")
		manifest := fmt.Sprintf(`[{"name": "d", "src": %q, "args": [["x"]], "backend": "failover"}]`, src)
		if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadManifest(path, nil)
		if err == nil {
			t.Fatal("failover accepted")
		}
		if want := path + ":1: design \"d\": json: unknown field \"backend\""; !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %q, want it to carry %q", err, want)
		}
	})
}

// TestManifestValidationOnePass: every problem in a -designs manifest is
// reported in a single pass, each with file:line context — duplicates,
// unknown fields (a retired "backend" mode, a misspelled "args"), missing
// files, bad args, and structural mistakes.
func TestManifestValidationOnePass(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.rapid")
	if err := os.WriteFile(src, []byte("network (String[] p) {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "designs.json")
	manifest := fmt.Sprintf(`[
  {"name": "a", "src": %[1]q},
  {"name": "a", "src": %[1]q},
  {"name": "b", "src": %[1]q, "backend": "device"},
  {"name": "c", "src": "/does/not/exist.rapid"},
  {"name": "e", "src": %[1]q, "args": [1.5]},
  {"src": %[1]q},
  {"name": "f"},
  {"name": "g", "src": %[1]q, "arsg": [["x"]]}
]`, src)
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := loadManifest(path, nil)
	if err == nil {
		t.Fatal("a broken manifest must be rejected")
	}
	msg := err.Error()
	for _, want := range []string{
		"7 problem(s)",
		path + ":3: design \"a\": duplicate of the design mounted at line 2",
		path + ":4: design \"b\": json: unknown field \"backend\"",
		path + ":5: design \"c\":",
		path + ":6: design \"e\": bad args:",
		path + ":7: entry 6: missing name",
		path + ":8: design \"f\": has neither src nor anml",
		path + ":9: design \"g\": json: unknown field \"arsg\"",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("validation report missing %q:\n%s", want, msg)
		}
	}
}

// TestManifestNameCollisionWithFlags: a manifest design clashing with the
// -src/-anml flag design is caught too.
func TestManifestNameCollisionWithFlags(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.rapid")
	if err := os.WriteFile(src, []byte("network (String[] p) {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "designs.json")
	manifest := fmt.Sprintf(`[{"name": "flagged", "src": %q}]`, src)
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadManifest(path, []serve.DesignSpec{{Name: "flagged"}})
	if err == nil || !strings.Contains(err.Error(), "name already taken by the -src/-anml flags") {
		t.Fatalf("err = %v, want flag-collision report", err)
	}
}

// TestManifestValid: a clean manifest loads every spec.
func TestManifestValid(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.rapid")
	if err := os.WriteFile(src, []byte("network (String[] p) {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "designs.json")
	manifest := fmt.Sprintf(`[
  {"name": "a", "src": %[1]q, "args": [["x"]]},
  {"name": "b", "src": %[1]q}
]`, src)
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := loadManifest(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || len(specs[0].Args) != 1 || specs[1].Name != "b" {
		t.Fatalf("specs = %+v", specs)
	}
}

// TestManifestSyntaxError: a manifest that is not JSON stops the load at
// the entry it breaks in, with that entry's file:line.
func TestManifestSyntaxError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "designs.json")
	if err := os.WriteFile(path, []byte("[\n  {\"name\": \"a\"},\n  {\"name\": \"b\",}\n]"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadManifest(path, nil)
	if err == nil || !strings.HasPrefix(err.Error(), path+":3: bad manifest entry: invalid character") {
		t.Fatalf("err = %v, want the syntax error at %s:3", err, path)
	}
}
