package lazydfa

import (
	"repro/internal/automata"
)

// program holds the immutable facts a lazy tier adds on top of its
// sub-topology's step kernel (which owns the acceptance, start,
// enable-mask, report, and counter/gate tables): the symbol-partition
// group map that keys the compressed transition rows, the per-state memory
// estimate, and the compile-time prefilter facts. The topology itself is
// not kept.
type program struct {
	k       *automata.Kernel
	special bool // configurations carry counter values; ExtractPrefilter has no facts for it
	nwords  int  // configuration width, counter words included
	ngroups int
	groupOf [256]uint8 // symbol → equivalence group; rows are ngroups wide

	// stateBytes estimates one cached state's memory (row cells,
	// configuration copy, in-edge records, index entries, struct overhead);
	// it denominates Options.MaxCacheBytes into a state-count cap.
	stateBytes int

	// Prefilter facts (automata.ExtractPrefilter). rest is the rest
	// configuration (nil when no facts); liveBytes is the byte set that can
	// move the automaton out of it, nil-able and possibly empty (a fully
	// anchored design whose rest configuration is dead).
	hasFacts  bool
	rest      []uint64
	liveBytes []byte
}

func compile(t *automata.Topology) *program {
	k := t.Kernel()
	part := automata.Partition(t)
	p := &program{k: k, special: !t.Pure(), nwords: k.Words(), ngroups: len(part.Representatives)}
	for sym := range p.groupOf {
		p.groupOf[sym] = uint8(part.GroupOf[sym])
	}
	// Per-state memory: one int32 row cell per group, 16 bytes per
	// configuration word, an amortized in-edge record per row cell (16
	// bytes), and a fixed 224 bytes for the state struct and slice headers.
	// The words and the allowance were sized when a state also had a string
	// key and a map entry; the configuration is now its own key and the
	// index costs 8–16 bytes a state, so the estimate is conservative. It
	// is kept as it was so that every cap derived from it stays put.
	p.stateBytes = 4*p.ngroups + 16*p.nwords + 16*p.ngroups + 224

	if facts := automata.ExtractPrefilter(t); facts != nil {
		p.hasFacts = true
		p.rest = make([]uint64, p.nwords)
		for _, id := range facts.Rest {
			p.rest[id>>6] |= 1 << (uint(id) & 63)
		}
		p.liveBytes = facts.Live.Symbols()
	}
	return p
}
