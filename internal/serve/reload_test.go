package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	rapid "repro"
	"repro/internal/telemetry"
)

// changedSpec is testSpec(name) with other network arguments: the same
// name over a different program.
func changedSpec(name string) DesignSpec {
	return DesignSpec{Name: name, Source: testSource, Args: []rapid.Value{rapid.Strings([]string{"abc", "xyz"})}}
}

// TestReloadReconcile checks the add/replace/keep/remove arithmetic and
// that an unmounted design stops resolving.
func TestReloadReconcile(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{Telemetry: reg})
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

	summary, err := s.ApplyManifest([]DesignSpec{
		testSpec("b"),    // unchanged
		changedSpec("a"), // program change → replacement
		testSpec("c"),    // new
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ReloadSummary{Added: []string{"c"}, Replaced: []string{"a"}, Kept: []string{"b"}}
	if !reflect.DeepEqual(summary, want) {
		t.Fatalf("summary = %+v, want %+v", summary, want)
	}

	summary, err = s.ApplyManifest([]DesignSpec{testSpec("c")})
	if err != nil {
		t.Fatal(err)
	}
	want = ReloadSummary{Kept: []string{"c"}, Removed: []string{"a", "b"}}
	if !reflect.DeepEqual(summary, want) {
		t.Fatalf("summary = %+v, want %+v", summary, want)
	}
	if _, _, err := s.submitNamed(context.Background(), "a", DefaultTenant, []byte("x")); err == nil {
		t.Fatal("removed design still resolves")
	}
	if _, _, err := s.submitNamed(context.Background(), "c", DefaultTenant, []byte("xxabc")); err != nil {
		t.Fatalf("kept design broken after reload: %v", err)
	}
	if got := reg.Snapshot().Counter(metricReloads, "outcome", "ok"); got != 2 {
		t.Fatalf("reloads ok = %d, want 2", got)
	}
}

// TestReloadInFlightCompletes is the no-dropped-requests contract: a
// request admitted before the swap finishes on the old engine, while a
// request after the swap lands on the new one.
func TestReloadInFlightCompletes(t *testing.T) {
	// Room for the held batch and one more, which must never come.
	old := &blockingEngine{entered: make(chan int, 2), release: make(chan struct{})}
	s := mustNew(t, Config{})
	mountEngine(s, "d", old)
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, _, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("x"))
		done <- result{err}
	}()
	<-old.entered // the request is inside the old engine

	// Swap in a compiled design while the old engine holds a request.
	summary, err := s.ApplyManifest([]DesignSpec{testSpec("d")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summary.Replaced, []string{"d"}) {
		t.Fatalf("summary = %+v, want d replaced", summary)
	}

	// The in-flight request is still parked on the old engine; release it
	// and it must complete successfully despite the design being retired.
	close(old.release)
	if r := <-done; r.err != nil {
		t.Fatalf("in-flight request dropped by reload: %v", r.err)
	}

	// New traffic lands on the replacement: the compiled design's
	// reports, not the double's, and no new batch on the old engine.
	want, err := compileTestDesign(t).RunBytes([]byte("xxabcd"))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xxabcd"))
	if err != nil {
		t.Fatal(err)
	}
	if gotSet, wantSet := reportSet(got), reportSet(want); !equalStrings(gotSet, wantSet) {
		t.Fatalf("after the swap reports %v, want the replacement's %v", gotSet, wantSet)
	}
	if n := len(old.entered); n != 0 {
		t.Fatalf("old engine ran %d more batches, want 0 (no new traffic)", n)
	}
}

// TestReloadCompileErrorLeavesStateUntouched: a manifest that fails to
// compile must not change the mounted set.
func TestReloadCompileErrorLeavesStateUntouched(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustNew(t, Config{Telemetry: reg})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := s.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}

	bad := DesignSpec{Name: "broken", Source: "network garbage("}
	if _, err := s.ApplyManifest([]DesignSpec{testSpec("d"), bad}); err == nil {
		t.Fatal("manifest with a compile error applied cleanly")
	}
	if _, _, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xxabc")); err != nil {
		t.Fatalf("existing design broken by failed reload: %v", err)
	}
	if got := reg.Snapshot().Counter(metricReloads, "outcome", "error"); got != 1 {
		t.Fatalf("reloads error = %d, want 1", got)
	}

	// Duplicate names are refused before any compilation.
	_, err := s.ApplyManifest([]DesignSpec{testSpec("d"), testSpec("d")})
	if err == nil {
		t.Fatal("duplicate design names accepted")
	}

	// A spec with no program fails the mount, and the mounted design
	// keeps serving.
	if _, err := s.ApplyManifest([]DesignSpec{testSpec("d"), {Name: "empty"}}); err == nil {
		t.Fatal("a spec with neither Source nor ANML applied cleanly")
	}
	if _, _, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xxabc")); err != nil {
		t.Fatalf("existing design broken by failed reload: %v", err)
	}
}

// TestReloadConcurrentHammer interleaves reloads with live traffic; under
// -race this doubles as the synchronization proof. Every request must
// either succeed or be told the design does not exist — never a dropped
// queue write or a stale-design error escaping the retry loop.
func TestReloadConcurrentHammer(t *testing.T) {
	s := mustNew(t, Config{})
	if _, err := s.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xxabc"))
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	// Alternate between two programs so every reload really swaps the
	// engine.
	for i := 0; i < 50; i++ {
		spec := testSpec("d")
		if i%2 == 1 {
			spec = changedSpec("d")
		}
		if _, err := s.ApplyManifest([]DesignSpec{spec}); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed during reload: %v", err)
	}
}

// TestReloadStaleDesignRetries pins the submit-side mechanism: a closed
// design surfaces errStaleDesign internally, and submitNamed re-resolves
// rather than failing the caller.
func TestReloadStaleDesignRetries(t *testing.T) {
	s := mustNew(t, Config{})
	if _, err := s.AddDesign(testSpec("d")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	d, err := s.lookup("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyManifest([]DesignSpec{changedSpec("d")}); err != nil {
		t.Fatal(err)
	}
	// Submitting against the retired snapshot reports staleness...
	if _, err := s.submit(context.Background(), d, []byte("x")); !errors.Is(err, errStaleDesign) {
		t.Fatalf("submit on retired design = %v, want errStaleDesign", err)
	}
	// ...and the name-based path hides that from callers.
	if _, _, err := s.submitNamed(context.Background(), "d", DefaultTenant, []byte("xxabc")); err != nil {
		t.Fatalf("submitNamed after replace: %v", err)
	}
}
