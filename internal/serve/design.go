package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync/atomic"

	rapid "repro"
)

// BackendEngine names the one way a mounted design executes: on its
// batched lazy-DFA Engine. DesignInfo.Backend and every reply carry it.
const BackendEngine = "engine"

// DesignSpec describes one design to mount on the server.
type DesignSpec struct {
	// Name is the design's endpoint name. Required.
	Name string
	// Source is RAPID source text; ANML is an ANML document. Exactly one
	// must be set.
	Source string
	ANML   []byte
	// Args are the network arguments applied at compile time.
	Args []rapid.Value
}

// DesignInfo is a mounted design's public description.
type DesignInfo struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Backend   string `json:"backend"`
	STEs      int    `json:"stes,omitempty"`
	Counters  int    `json:"counters,omitempty"`
	Gates     int    `json:"gates,omitempty"`
	Reporting int    `json:"reporting,omitempty"`
	// Tiers is the design's Engine.Tiers(): "lazy-dfa", "counter-dfa" or
	// "lazy-dfa+counter-dfa".
	Tiers string `json:"tiers,omitempty"`
	// Sites maps each report code to its source site (rapid.Design.Sites).
	// Match replies resolve every report's site from it, so it is shared
	// with the server and read only.
	Sites map[int]string `json:"sites,omitempty"`
}

// design is one mounted design: its compiled artifact's engine, bounded
// admission queue, and instrument set.
type design struct {
	info DesignInfo
	// sites is info.Sites quoted for the reply codec, and hashHeader is
	// info.Hash as a header value; both are built at mount and never
	// mutated.
	sites      map[int][]byte
	hashHeader []string
	engine     batchEngine
	queue      chan *job
	tel        designMetrics
	// closed flips (under the server's admitMu write lock) when the design
	// is unmounted by a hot reload or shutdown; its queue is closed and
	// admissions re-resolve the name instead of enqueueing.
	closed atomic.Bool
}

// batchEngine is what the dispatcher needs of *rapid.Engine; tests hold a
// batch open with a blocking double.
type batchEngine interface {
	RunBatchSettled(ctx context.Context, inputs [][]byte) []rapid.BatchResult
}

// closeLocked closes the design's queue exactly once. The caller holds
// the server's admitMu write lock, fencing against in-flight admissions.
func (d *design) closeLocked() {
	if d.closed.CompareAndSwap(false, true) {
		close(d.queue)
	}
}

// programHash fingerprints the compilable identity of a spec — the
// program text and its network arguments. Designs with equal hashes share
// one compiled artifact.
func programHash(spec DesignSpec) string {
	h := sha256.New()
	if len(spec.ANML) > 0 {
		io.WriteString(h, "anml\x00")
		h.Write(spec.ANML)
	} else {
		io.WriteString(h, "rapid\x00")
		io.WriteString(h, spec.Source)
	}
	io.WriteString(h, "\x00")
	for _, a := range spec.Args {
		fmt.Fprintf(h, "%v\x00", a)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compileDesign resolves a spec into a compiled artifact (through the
// server's hash-keyed cache) plus its engine, and builds what its replies
// share, its admission queue and its instruments.
func (s *Server) compileDesign(spec DesignSpec) (*design, error) {
	hash := programHash(spec)
	compiled, err := s.compiledDesign(spec, hash)
	if err != nil {
		return nil, err
	}
	opts := []rapid.Option{}
	if s.cfg.Workers > 0 {
		opts = append(opts, rapid.WithWorkers(s.cfg.Workers))
	}
	if s.cfg.Telemetry != nil {
		opts = append(opts, rapid.WithTelemetry(s.cfg.Telemetry))
	}
	eng, err := compiled.NewEngine(opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: design %q: %w", spec.Name, err)
	}
	stats := compiled.Stats()
	d := &design{
		info: DesignInfo{
			Name:      spec.Name,
			Hash:      hash,
			Backend:   BackendEngine,
			STEs:      stats.STEs,
			Counters:  stats.Counters,
			Gates:     stats.BooleanGates,
			Reporting: stats.Reporting,
			Tiers:     eng.Tiers(),
			Sites:     compiled.Sites(),
		},
		hashHeader: []string{hash},
		engine:     eng,
		queue:      make(chan *job, s.cfg.QueueDepth),
		tel:        s.tel.forDesign(spec.Name),
	}
	d.sites = SiteTable(d.info.Sites)
	return d, nil
}

// compiledDesign returns the cached compiled artifact for hash through
// the two-tier cache: the in-memory map first, then the persistent
// on-disk cache (restart against a populated cache mounts without
// recompiling), and only then a full compile — whose result is persisted
// for the next process. The caller holds s.mu.
func (s *Server) compiledDesign(spec DesignSpec, hash string) (*rapid.Design, error) {
	if compiled, ok := s.compiled[hash]; ok {
		s.tel.cacheHits.With("memory").Inc()
		return compiled, nil
	}
	if s.diskCache != nil {
		compiled, err := s.diskCache.load(hash)
		if compiled != nil && err == nil {
			s.tel.cacheHits.With("disk").Inc()
			s.ensurePlacement(compiled, hash, true)
			s.compiled[hash] = compiled
			return compiled, nil
		}
		if err != nil {
			// Corrupt or unreadable entry: recompile and overwrite it.
			s.tel.cacheWrites.With("error").Inc()
		}
	}
	s.tel.cacheMisses.Inc()
	var compiled *rapid.Design
	var err error
	switch {
	case len(spec.ANML) > 0:
		compiled, err = rapid.LoadANML(spec.ANML)
	case spec.Source != "":
		var prog *rapid.Program
		prog, err = rapid.Parse(spec.Source)
		if err == nil {
			compiled, err = prog.Compile(spec.Args...)
		}
	default:
		err = fmt.Errorf("spec has neither Source nor ANML")
	}
	if err != nil {
		return nil, fmt.Errorf("serve: design %q: %w", spec.Name, err)
	}
	s.ensurePlacement(compiled, hash, false)
	s.compiled[hash] = compiled
	if s.diskCache != nil {
		if err := s.diskCache.store(hash, compiled); err != nil {
			s.tel.cacheWrites.With("error").Inc()
		} else {
			s.tel.cacheWrites.With("ok").Inc()
		}
	}
	return compiled, nil
}

// ensurePlacement gives a compiled design its placement when the server
// is configured to persist placements (Config.Placement). Placement runs
// through the process-wide macro-stamping cache, so a manifest full of
// variants of one rule family pays for each distinct shape once. fromDisk
// marks artifacts loaded from the persistent cache: when their stored
// placement section cannot be used — absent in a previous-format
// artifact, or corrupt — the miss is counted by reason and the freshly
// placed artifact is re-persisted so the next restart restores instead of
// recomputing. The caller holds s.mu.
func (s *Server) ensurePlacement(compiled *rapid.Design, hash string, fromDisk bool) {
	if !s.cfg.Placement || compiled.HasPlacement() {
		return
	}
	hadSection := compiled.HasStoredPlacement()
	restored, err := compiled.EnsurePlaced(s.placeCache)
	if err != nil {
		// Placement is an accelerator, not a serving dependency: a design
		// too large for the modeled board still mounts and serves.
		s.tel.placementMisses.With("error").Inc()
		return
	}
	if !fromDisk || restored {
		return
	}
	reason := "absent"
	if hadSection {
		reason = "corrupt"
	}
	s.tel.placementMisses.With(reason).Inc()
	if s.diskCache != nil {
		if err := s.diskCache.store(hash, compiled); err != nil {
			s.tel.cacheWrites.With("error").Inc()
		} else {
			s.tel.cacheWrites.With("ok").Inc()
		}
	}
}
