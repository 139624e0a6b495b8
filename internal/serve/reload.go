package serve

import (
	"fmt"
	"sort"
)

// ReloadSummary reports what one ApplyManifest call changed.
type ReloadSummary struct {
	// Added designs were mounted fresh; Replaced designs changed program
	// (source, ANML or arguments) and were swapped; Kept designs were
	// untouched; Removed designs were unmounted (after their admitted
	// requests completed).
	Added, Replaced, Kept, Removed []string
}

func (r ReloadSummary) String() string {
	return fmt.Sprintf("added=%d replaced=%d kept=%d removed=%d",
		len(r.Added), len(r.Replaced), len(r.Kept), len(r.Removed))
}

// ApplyManifest reconciles the mounted design set against specs — the hot
// reload behind SIGHUP and manifest watching. Unchanged designs (same
// program hash) keep serving untouched; new designs are
// mounted; changed designs are swapped in atomically; designs absent from
// specs are unmounted. No in-flight request is dropped anywhere in the
// process: a replaced design's already-admitted requests finish on the
// old engine (its dispatcher drains the closed queue before exiting),
// and an admission racing the swap re-resolves the name onto the new
// design.
//
// All compilation happens before any swap, so a manifest that fails to
// compile leaves the serving state exactly as it was.
func (s *Server) ApplyManifest(specs []DesignSpec) (ReloadSummary, error) {
	var summary ReloadSummary

	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.Name == "" {
			s.tel.reloads.With("error").Inc()
			return summary, fmt.Errorf("serve: reload: design name is required")
		}
		if seen[spec.Name] {
			s.tel.reloads.With("error").Inc()
			return summary, fmt.Errorf("serve: reload: duplicate design %q", spec.Name)
		}
		seen[spec.Name] = true
	}

	s.mu.Lock()
	// Phase 1: compile everything new or changed. Failures abort with the
	// mounted set untouched.
	next := make(map[string]*design, len(specs))
	var retired []*design
	for _, spec := range specs {
		if cur, ok := s.designs[spec.Name]; ok && cur.info.Hash == programHash(spec) {
			next[spec.Name] = cur
			summary.Kept = append(summary.Kept, spec.Name)
			continue
		}
		d, err := s.compileDesign(spec)
		if err != nil {
			s.mu.Unlock()
			s.tel.reloads.With("error").Inc()
			return ReloadSummary{}, err
		}
		next[spec.Name] = d
		if _, ok := s.designs[spec.Name]; ok {
			summary.Replaced = append(summary.Replaced, spec.Name)
		} else {
			summary.Added = append(summary.Added, spec.Name)
		}
	}
	for name, d := range s.designs {
		if next[name] != d {
			retired = append(retired, d)
			if !seen[name] {
				summary.Removed = append(summary.Removed, name)
			}
		}
	}
	sort.Strings(summary.Removed)

	// Phase 2: swap the mounted set and start dispatchers for the new
	// designs. Mount-before-close ordering: by the time a retired queue
	// closes, the name already resolves to its replacement.
	order := make([]string, 0, len(specs))
	for _, spec := range specs {
		order = append(order, spec.Name)
	}
	s.designs = next
	s.order = order
	for _, name := range append(append([]string{}, summary.Added...), summary.Replaced...) {
		s.dispatchers.Add(1)
		go s.dispatch(next[name])
	}
	// Prune compiled artifacts no mounted design references, so repeated
	// reloads don't grow the in-memory cache unboundedly. (The on-disk
	// tier keeps everything: it is what makes remounting cheap.)
	inUse := make(map[string]bool, len(next))
	for _, d := range next {
		inUse[d.info.Hash] = true
	}
	for hash := range s.compiled {
		if !inUse[hash] {
			delete(s.compiled, hash)
		}
	}
	s.mu.Unlock()

	// Phase 3: close the retired queues under the admission fence. Their
	// dispatchers drain every already-admitted request, then exit.
	s.admitMu.Lock()
	for _, d := range retired {
		d.closeLocked()
	}
	s.admitMu.Unlock()

	s.tel.reloads.With("ok").Inc()
	return summary, nil
}
