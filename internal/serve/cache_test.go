package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestDiskCacheRestart is the restart-cheaply contract: a second server
// pointed at the first server's artifact directory mounts the same design
// from disk — observable as a serve.cache disk hit with zero compiles —
// and produces identical match results, including report sites.
func TestDiskCacheRestart(t *testing.T) {
	dir := t.TempDir()
	input := []byte("xxabcdxxabcx")

	reg1 := telemetry.NewRegistry()
	s1 := mustNew(t, Config{ArtifactDir: dir, Telemetry: reg1})
	if _, err := s1.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}
	snap := reg1.Snapshot()
	if got := snap.Counter(metricCacheMisses); got != 1 {
		t.Fatalf("first mount: cache misses = %d, want 1 (a compile)", got)
	}
	if got := snap.Counter(metricCacheWrites, "outcome", "ok"); got != 1 {
		t.Fatalf("first mount: cache writes ok = %d, want 1", got)
	}
	d1, want1, err := s1.submitNamed(context.Background(), "d", DefaultTenant, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same artifact directory.
	reg2 := telemetry.NewRegistry()
	s2 := mustNew(t, Config{ArtifactDir: dir, Telemetry: reg2})
	info, err := s2.AddDesign(testSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	snap = reg2.Snapshot()
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 1 {
		t.Fatalf("restart: disk cache hits = %d, want 1", got)
	}
	if got := snap.Counter(metricCacheMisses); got != 0 {
		t.Fatalf("restart: cache misses = %d, want 0 (no recompile)", got)
	}
	if info.Hash != d1.info.Hash {
		t.Fatalf("restart changed the program hash: %s vs %s", info.Hash, d1.info.Hash)
	}
	_, got, err := s2.submitNamed(context.Background(), "d", DefaultTenant, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want1) {
		t.Fatalf("restored design reported %d events, want %d", len(got), len(want1))
	}
	for i := range want1 {
		if got[i] != want1[i] {
			t.Fatalf("report %d: restored %+v != compiled %+v (sites must survive the cache)", i, got[i], want1[i])
		}
	}
}

// TestDiskCacheMemoryTierFirst: a second design with the same program
// hash hits the in-memory tier, not disk.
func TestDiskCacheMemoryTierFirst(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{ArtifactDir: t.TempDir(), Telemetry: reg})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := s.AddDesign(testSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDesign(testSpec("b")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(metricCacheHits, "tier", "memory"); got != 1 {
		t.Fatalf("memory hits = %d, want 1", got)
	}
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 0 {
		t.Fatalf("disk hits = %d, want 0", got)
	}
}

// TestDiskCacheCorruptEntryRecompiles: a torn or garbage cache entry is
// recompiled and overwritten, never served.
func TestDiskCacheCorruptEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	// Populate the cache, then corrupt the entry.
	s1 := mustNew(t, Config{ArtifactDir: dir})
	info, err := s1.AddDesign(testSpec("d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	cache, err := openArtifactCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(info.Hash), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2 := mustNew(t, Config{ArtifactDir: dir, Telemetry: reg})
	if _, err := s2.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	snap := reg.Snapshot()
	if got := snap.Counter(metricCacheMisses); got != 1 {
		t.Fatalf("corrupt entry: cache misses = %d, want 1 (recompiled)", got)
	}
	if got := snap.Counter(metricCacheHits, "tier", "disk"); got != 0 {
		t.Fatalf("corrupt entry: disk hits = %d, want 0", got)
	}
	// The overwrite repaired the entry for the next restart.
	if d, err := cache.load(info.Hash); err != nil || d == nil {
		t.Fatalf("cache entry not repaired: design=%v err=%v", d, err)
	}
	// The repair is atomic: no temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(cache.versionDir(), "*.tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}
