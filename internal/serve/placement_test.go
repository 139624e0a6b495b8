package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// mountPlacing mounts the test design on a fresh placement-enabled server
// over dir and returns its hash plus the telemetry snapshot.
func mountPlacing(t *testing.T, dir string) (string, *telemetry.Snapshot) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{ArtifactDir: dir, Placement: true, Telemetry: reg})
	info, err := s.AddDesign(testSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return info.Hash, reg.Snapshot()
}

// TestPlacementPersistedAndRestored: a placement-enabled server writes
// the placement section into the artifact, and a restart restores it —
// zero placement misses.
func TestPlacementPersistedAndRestored(t *testing.T) {
	dir := t.TempDir()
	hash, _ := mountPlacing(t, dir)

	cache, err := openArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"placement"`) {
		t.Fatal("persisted artifact has no placement section")
	}

	_, snap := mountPlacing(t, dir)
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 1 {
		t.Fatalf("restart: disk hits = %d, want 1", got)
	}
	for _, reason := range []string{"absent", "corrupt", "error"} {
		if got := snap.Counter(metricCachePlacementMisses, "reason", reason); got != 0 {
			t.Fatalf("restart: placement misses (%s) = %d, want 0", reason, got)
		}
	}
}

// TestPlacementVersionSkewPreviousFormat is the version-skew contract: a
// previous-format artifact without a placement section must mount (never
// be rejected), count a placement miss with reason "absent", and be
// re-persisted with a placement section for the next restart.
func TestPlacementVersionSkewPreviousFormat(t *testing.T) {
	dir := t.TempDir()
	hash, _ := mountPlacing(t, dir)
	cache, err := openArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry as its v1 ancestor: format 1, no placement —
	// what a pre-bump process (or an operator migrating an old cache
	// directory) would have produced.
	data, err := os.ReadFile(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["format"] = json.RawMessage("1")
	delete(env, "placement")
	v1, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(hash), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	_, snap := mountPlacing(t, dir)
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 1 {
		t.Fatalf("v1 artifact: disk hits = %d, want 1 (must load, not be rejected)", got)
	}
	if got := snap.Counter(metricCacheMisses); got != 0 {
		t.Fatalf("v1 artifact: cache misses = %d, want 0 (no recompile)", got)
	}
	if got := snap.Counter(metricCachePlacementMisses, "reason", "absent"); got != 1 {
		t.Fatalf("v1 artifact: placement misses (absent) = %d, want 1", got)
	}
	// The upgrade re-persisted a full-format artifact.
	upgraded, err := os.ReadFile(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(upgraded), `"placement"`) {
		t.Fatal("v1 artifact was not upgraded with a placement section")
	}
}

// TestPlacementVersionDirIsolation: the format bump changes the cache
// path, so an old version directory full of v1 artifacts reads as an
// empty cache — a clean recompile, not a parse error storm.
func TestPlacementVersionDirIsolation(t *testing.T) {
	dir := t.TempDir()
	// Simulate a pre-bump cache: a v1 directory with an entry under the
	// same hash the design will get.
	reg0 := telemetry.NewRegistry()
	s0 := mustNew(t, Config{ArtifactDir: t.TempDir(), Placement: true, Telemetry: reg0})
	info, err := s0.AddDesign(testSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "v1")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, info.Hash+".artifact.json"), []byte(`{"format":1,"anml":"stale"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, snap := mountPlacing(t, dir)
	if got := snap.Counter(metricCacheMisses); got != 1 {
		t.Fatalf("old version dir: cache misses = %d, want 1 (clean recompile)", got)
	}
	if got := snap.Counter(metricCacheWrites, "outcome", "error"); got != 0 {
		t.Fatalf("old version dir: cache write errors = %d, want 0", got)
	}
}

// TestPlacementCorruptSectionFallsBack: a damaged placement section in an
// otherwise valid artifact falls back to a fresh global placement —
// counted as a "corrupt" placement miss — and repairs the entry.
func TestPlacementCorruptSectionFallsBack(t *testing.T) {
	dir := t.TempDir()
	hash, _ := mountPlacing(t, dir)
	cache, err := openArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]interface{}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	pl, ok := env["placement"].(map[string]interface{})
	if !ok {
		t.Fatal("artifact has no placement section to corrupt")
	}
	pl["blocks"] = []int{} // truncated assignment array
	bad, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(hash), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	_, snap := mountPlacing(t, dir)
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 1 {
		t.Fatalf("corrupt section: disk hits = %d, want 1 (artifact itself is fine)", got)
	}
	if got := snap.Counter(metricCachePlacementMisses, "reason", "corrupt"); got != 1 {
		t.Fatalf("corrupt section: placement misses (corrupt) = %d, want 1", got)
	}
	if got := snap.Counter(metricCacheMisses); got != 0 {
		t.Fatalf("corrupt section: cache misses = %d, want 0 (no recompile)", got)
	}
	// The repaired entry restores cleanly on the next restart.
	_, snap = mountPlacing(t, dir)
	if got := snap.Counter(metricCachePlacementMisses, "reason", "corrupt"); got != 0 {
		t.Fatalf("repair did not stick: placement misses (corrupt) = %d, want 0", got)
	}
}
