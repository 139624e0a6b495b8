package automata

import (
	"fmt"
	"slices"
)

// Equivalence checking for counter-free networks: two designs are
// report-equivalent when, for every input stream, they report exactly the
// same codes at the same offsets. This is decidable for pure STE networks
// via a joint subset construction, and is how the optimization pipeline is
// verified beyond sampling.

// ErrHasSpecials is returned when a design contains counters or gates,
// whose unbounded state puts exact equivalence checking out of scope.
var ErrHasSpecials = fmt.Errorf("automata: equivalence checking requires counter- and gate-free designs")

// steOnly verifies the topology contains only STEs.
func steOnly(t *Topology) error {
	if !t.Pure() {
		return ErrHasSpecials
	}
	return nil
}

// Equivalent checks report-equivalence of two counter-free topologies. It
// returns nil when equivalent, or an error carrying a counterexample input
// on whose last symbol the designs report different sets of codes.
func Equivalent(a, b *Topology) error {
	if err := steOnly(a); err != nil {
		return err
	}
	if err := steOnly(b); err != nil {
		return err
	}
	part := Partition(a, b)
	ka, kb := a.Kernel(), b.Kernel()

	// A pair is a joint deterministic configuration: each design's enable
	// vector after the shared input witness.
	type pair struct {
		ea, eb  []uint64
		witness []byte
	}
	extend := func(w []byte, sym byte) []byte {
		return append(append(make([]byte, 0, len(w)+1), w...), sym)
	}
	wa, wb := ka.Words(), kb.Words()
	activeA, activeB := make([]uint64, wa), make([]uint64, wb)
	// Successors are stepped into scratch vectors and copied only when
	// they turn out to be new: most expansions land on a pair already seen.
	na, nb := make([]uint64, wa), make([]uint64, wb)
	var codesA, codesB []int
	seen := map[string]bool{}
	var key []byte
	queue := []pair{{ea: make([]uint64, wa), eb: make([]uint64, wb)}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, sym := range part.Representatives {
			first := len(cur.witness) == 0
			ka.Step(cur.ea, first, sym, activeA, na)
			kb.Step(cur.eb, first, sym, activeB, nb)
			codesA, codesB = ka.ReportCodes(codesA[:0], activeA), kb.ReportCodes(codesB[:0], activeB)
			if !slices.Equal(codesA, codesB) {
				w := extend(cur.witness, sym)
				return fmt.Errorf("automata: designs differ on input %q (offset %d): %q reports codes %v, %q reports codes %v",
					w, len(w)-1, a.Name, codesA, b.Name, codesB)
			}
			key = AppendConfigKey(AppendConfigKey(key[:0], na, false), nb, false)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			cfg := append(append(make([]uint64, 0, wa+wb), na...), nb...)
			queue = append(queue, pair{ea: cfg[:wa:wa], eb: cfg[wa:], witness: extend(cur.witness, sym)})
		}
	}
	return nil
}
