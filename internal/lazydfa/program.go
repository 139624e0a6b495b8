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

	// stateBytes estimates one cached state's memory (row cells, key,
	// configuration copy, in-edge records, struct overhead); it denominates
	// Options.MaxCacheBytes into a state-count cap.
	stateBytes int

	// Prefilter facts (automata.ExtractPrefilter). restKey is the config
	// key of the rest configuration ("" when no facts — keys are always
	// nonempty, so "" never collides); liveBytes is the byte set that can
	// move the automaton out of it, nil-able and possibly empty (a fully
	// anchored design whose rest configuration is dead).
	hasFacts  bool
	restKey   string
	liveBytes []byte
}

func compile(t *automata.Topology) *program {
	k := t.Kernel()
	part := automata.Partition(t)
	p := &program{k: k, special: !t.Pure(), nwords: k.Words(), ngroups: len(part.Representatives)}
	for sym := range p.groupOf {
		p.groupOf[sym] = uint8(part.GroupOf[sym])
	}
	// Per-state memory: one int32 row cell per group, the interned key and
	// the configuration copy (8 bytes per word each, plus the key's flag
	// byte), an amortized in-edge record per row cell (16 bytes), and a
	// fixed allowance for the state struct, map entry, and slice headers.
	p.stateBytes = 4*p.ngroups + 16*p.nwords + 16*p.ngroups + 224

	if facts := automata.ExtractPrefilter(t); facts != nil {
		p.hasFacts = true
		rest := make([]uint64, p.nwords)
		for _, id := range facts.Rest {
			rest[id>>6] |= 1 << (uint(id) & 63)
		}
		p.restKey = string(automata.AppendConfigKey(nil, rest, false))
		p.liveBytes = facts.Live.Symbols()
	}
	return p
}
