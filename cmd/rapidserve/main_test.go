package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	rapid "repro"
	"repro/internal/serve"
)

// TestManifestValidationOnePass: every problem in a -designs manifest is
// reported in a single pass, each with file:line context — duplicates,
// unknown backends, missing files, bad args, and structural mistakes.
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
  {"name": "b", "src": %[1]q, "backend": "warp-drive"},
  {"name": "c", "src": "/does/not/exist.rapid"},
  {"name": "e", "src": %[1]q, "args": [1.5]},
  {"src": %[1]q},
  {"name": "f"}
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
		"6 problem(s)",
		path + ":3: design \"a\": duplicate of the design mounted at line 2",
		path + ":4: design \"b\": rapid: unknown backend \"warp-drive\" (valid kinds: engine, device, lazy-dfa, reference)",
		path + ":5: design \"c\":",
		path + ":6: design \"e\": bad args:",
		path + ":7: entry 6: missing name",
		path + ":8: design \"f\": has neither src nor anml",
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
  {"name": "b", "src": %[1]q, "backend": "reference"}
]`, src)
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := loadManifest(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].Backend != "reference" {
		t.Fatalf("specs = %+v", specs)
	}
}

// TestFailoverBackendRefused: "failover" names no backend — replica
// failover is the gateway's — so every entry point that takes a backend
// name refuses it at load with the typed *rapid.UnknownBackendError,
// listing the names that entry point accepts. rapidrun runs as a process,
// so only the error's text crosses back, and it must be exactly that.
func TestFailoverBackendRefused(t *testing.T) {
	const source = `
macro m(String s) {
  foreach (char c : s) c == input();
  report;
}
network (String[] ws) { some (String w : ws) m(w); }`
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.rapid")
	if err := os.WriteFile(src, []byte(source), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := serve.DesignSpec{Name: "d", Source: source, Backend: "failover",
		Args: []rapid.Value{rapid.Strings([]string{"x"})}}
	mount := func(t *testing.T, apply func(*serve.Server) error) error {
		s, err := serve.New(serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		return apply(s)
	}
	serveKinds := &rapid.UnknownBackendError{Got: "failover", Extra: []string{serve.BackendEngine}}
	for _, tc := range []struct {
		name  string
		want  *rapid.UnknownBackendError
		typed bool
		load  func(t *testing.T) error
	}{
		{"AddDesign", serveKinds, true, func(t *testing.T) error {
			return mount(t, func(s *serve.Server) error { _, err := s.AddDesign(spec); return err })
		}},
		{"ApplyManifest", serveKinds, true, func(t *testing.T) error {
			return mount(t, func(s *serve.Server) error { _, err := s.ApplyManifest([]serve.DesignSpec{spec}); return err })
		}},
		{"rapidserve -designs", serveKinds, true, func(t *testing.T) error {
			path := filepath.Join(dir, "designs.json")
			manifest := fmt.Sprintf(`[{"name": "d", "src": %q, "args": [["x"]], "backend": "failover"}]`, src)
			if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadManifest(path, nil)
			return err
		}},
		{"rapidrun -backend", &rapid.UnknownBackendError{Got: "failover"}, false, func(t *testing.T) error {
			bin := filepath.Join(dir, "rapidrun")
			build := exec.Command("go", "build", "-o", bin, "repro/cmd/rapidrun")
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stderr strings.Builder
			run := exec.Command(bin, "-src", src, "-args", `[["x"]]`, "-text", "abc", "-backend", "failover")
			run.Stderr = &stderr
			if err := run.Run(); err == nil {
				t.Fatal("rapidrun -backend failover exited 0")
			}
			return errors.New(strings.TrimSpace(stderr.String()))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.load(t)
			if err == nil {
				t.Fatal("failover accepted")
			}
			var ube *rapid.UnknownBackendError
			if tc.typed && (!errors.As(err, &ube) || ube.Got != "failover") {
				t.Fatalf("err = %v, want *rapid.UnknownBackendError for \"failover\"", err)
			}
			if !tc.typed && err.Error() != "rapidrun: "+tc.want.Error() {
				t.Fatalf("stderr %q, want exactly the typed error's text %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want.Error()) {
				t.Fatalf("err = %q, want it to carry %q", err, tc.want)
			}
		})
	}
}
