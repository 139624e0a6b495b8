package automata

import (
	"repro/internal/charclass"
)

// SymbolPartition groups the 256 input symbols into equivalence classes:
// two symbols are equivalent when every STE class in the network treats
// them identically. Analyses that explore the input alphabet (witness
// search, equivalence checking) only need one representative per group,
// which typically shrinks the branching factor from 256 to a handful.
type SymbolPartition struct {
	// Representatives holds one symbol from each equivalence group.
	Representatives []byte
	// GroupOf maps every symbol to the index of its group.
	GroupOf [256]int
}

// Partition computes the symbol equivalence classes of one or more
// frozen topologies considered together.
func Partition(tops ...*Topology) *SymbolPartition {
	// Signature of a symbol: the set of distinct classes containing it.
	// Build incrementally: start with one group holding all symbols and
	// split by each class, in STE order. Splitting again by a class already
	// applied changes nothing, so each distinct class is applied once.
	r := refinement{ends: make([]int, 1, 256), next: make([]int, 0, 256)}
	for i := range r.syms {
		r.syms[i] = byte(i)
	}
	r.ends[0] = len(r.syms)
	seen := make(map[charclass.Class]bool)
	for _, t := range tops {
		for id := ElementID(0); id < ElementID(t.Len()); id++ {
			if cls := t.Class(id); t.Kind(id) == KindSTE && !seen[cls] {
				seen[cls] = true
				r.split(cls)
			}
		}
	}
	p := &SymbolPartition{Representatives: make([]byte, len(r.ends))}
	lo := 0
	for gi, hi := range r.ends {
		p.Representatives[gi] = r.syms[lo]
		for _, sym := range r.syms[lo:hi] {
			p.GroupOf[sym] = gi
		}
		lo = hi
	}
	return p
}

// refinement is a partition of the symbols in progress: syms lists them
// group after group, and group i ends at ends[i].
type refinement struct {
	syms, buf  [256]byte
	ends, next []int
}

// split refines every group against one class: its symbols in the class
// stay first, in order, and the rest follow as a new group.
func (r *refinement) split(cls charclass.Class) {
	r.next = r.next[:0]
	lo := 0
	for _, hi := range r.ends {
		in, out := lo, 0
		for _, sym := range r.syms[lo:hi] {
			if cls.Contains(sym) {
				r.syms[in] = sym
				in++
			} else {
				r.buf[out] = sym
				out++
			}
		}
		copy(r.syms[in:hi], r.buf[:out])
		if in > lo && in < hi {
			r.next = append(r.next, in)
		}
		r.next = append(r.next, hi)
		lo = hi
	}
	r.ends, r.next = r.next, r.ends
}
