package rapid

import (
	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/place"
)

// PlacementCache is a cross-design placement accelerator: it carries the
// macro-stamping footprint cache, so a batch of designs that are variants
// of one rule family (a serving manifest, a detector pattern bank) pays
// for each distinct component shape's placement once. A single cache may
// be shared by concurrent EnsurePlaced calls on different designs.
type PlacementCache struct {
	stamper *place.Stamper
}

// NewPlacementCache returns an empty cross-design placement cache.
func NewPlacementCache() *PlacementCache {
	return &PlacementCache{stamper: place.NewStamper()}
}

// Shapes returns the number of distinct component shapes whose placed
// footprints are cached.
func (c *PlacementCache) Shapes() int { return c.stamper.Shapes() }

// HasPlacement reports whether the design carries a validated placement
// (computed or restored by EnsurePlaced).
func (d *Design) HasPlacement() bool { return d.placed != nil }

// HasStoredPlacement reports whether the design was loaded from an
// artifact carrying a (not yet validated) placement section.
func (d *Design) HasStoredPlacement() bool { return d.rawPlacement != nil }

// EnsurePlaced gives the design's device network a placement: it keeps
// an existing one, otherwise restores and validates a placement section
// loaded from an artifact, otherwise runs the baseline placement flow
// (through cache's stamping fast path when cache is non-nil; a nil cache
// just disables cross-design stamping). restored reports whether a stored section was
// used — false with a stored section present means the section was
// corrupt or stale and a fresh placement was computed instead, which
// callers use to re-persist the artifact and count a cache miss.
//
// EnsurePlaced mutates the design and is not safe for concurrent calls on
// one design; the serving layer invokes it under its per-design compile
// lock.
func (d *Design) EnsurePlaced(cache *PlacementCache) (restored bool, err error) {
	if d.placed != nil {
		return false, nil
	}
	if d.rawPlacement != nil {
		if p := d.restorePlacement(); p != nil {
			d.placed = p
			return true, nil
		}
		d.rawPlacement = nil // invalid section: recompute below
	}
	cfg := place.Config{}
	if cache != nil {
		cfg.Stamper = cache.stamper
	}
	p, err := place.Place(d.device(), cfg)
	if err != nil {
		return false, err
	}
	d.placed = p
	return false, nil
}

// restorePlacement validates the raw artifact placement section against
// the design's device network and converts it. The device network's
// derivation is deterministic (its prefix and suffix merges take their
// groups in ascending id order, so even edge order repeats), so a section
// recorded by any process that placed the design with the same compiler
// lines up exactly; any disagreement — truncated arrays, out-of-range
// assignments, a logical block holding more elements than one block's
// capacity, two logical blocks on one physical block, an element count
// from a different compiler version — returns nil and the caller falls
// back to placing from scratch. A stale artifact can degrade only into
// recompilation, never into a bogus layout.
func (d *Design) restorePlacement() *place.Placement {
	raw := d.rawPlacement
	work := d.device()
	top, err := work.Freeze()
	if err != nil {
		return nil
	}
	n := top.Len()
	res := ap.FirstGeneration()
	if raw.Elements != n || len(raw.Blocks) != n || len(raw.Rows) != n {
		return nil
	}
	if raw.TotalBlocks < 1 || len(raw.Physical) != raw.TotalBlocks {
		return nil
	}
	usage := make([]ap.BlockUsage, raw.TotalBlocks)
	for i := 0; i < n; i++ {
		b := raw.Blocks[i]
		if b < -1 || b >= raw.TotalBlocks {
			return nil
		}
		if raw.Rows[i] < 0 || raw.Rows[i] >= res.RowsPerBlock {
			return nil
		}
		if b >= 0 { // -1 is a replicated broadcast source
			usage[b].Add(ap.UsageOfKind(top.Kind(automata.ElementID(i))))
		}
	}
	for _, u := range usage {
		if !u.Fits(res) {
			return nil
		}
	}
	taken := make([]bool, res.TotalBlocks())
	for _, b := range raw.Physical {
		if b < 0 || b >= len(taken) || taken[b] {
			return nil
		}
		taken[b] = true
	}
	return &place.Placement{
		Network:        work,
		BlockOf:        raw.Blocks,
		RowOf:          raw.Rows,
		PhysicalBlocks: raw.Physical,
		Stamped:        raw.Stamped,
		Metrics: place.Metrics{
			TotalBlocks:    raw.TotalBlocks,
			ClockDivisor:   raw.ClockDivisor,
			STEUtilization: raw.STEUtilization,
			MeanBRAlloc:    raw.MeanBRAlloc,
			Elements:       n,
			STEs:           raw.STEs,
			Counters:       raw.Counters,
			Gates:          raw.Gates,
		},
	}
}
