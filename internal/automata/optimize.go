package automata

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/charclass"
)

// compact returns a copy of n containing only the elements with keep[id]
// set (every element when keep is nil), remapping ids densely and dropping
// edges incident to removed elements. Out-edge lists keep their order;
// in-edge lists come out ordered by source.
func (n *Network) compact(keep []bool) *Network {
	out := &Network{Name: n.Name, elems: make([]Element, 0, n.Len()),
		outs: make([][]Edge, 0, n.Len()), ins: make([][]Edge, 0, n.Len())}
	remap := make([]ElementID, n.Len())
	for i := range n.elems {
		if remap[i] = NoElement; keep == nil || keep[i] {
			remap[i] = out.add(n.elems[i])
		}
	}
	for i := range n.elems {
		for _, e := range n.outs[i] {
			if from, to := remap[i], remap[e.To]; from != NoElement && to != NoElement {
				ed := Edge{From: from, To: to, Port: e.Port}
				out.outs[from] = append(out.outs[from], ed) // n has no duplicate edges
				out.ins[to] = append(out.ins[to], ed)
			}
		}
	}
	return out
}

// PruneUnreachable returns a copy of n without elements that can never
// activate: elements with no path from a start STE. Counter reset edges are
// treated as ordinary connectivity.
func (n *Network) PruneUnreachable() *Network {
	reachable := make([]bool, n.Len())
	var queue []ElementID
	for i := range n.elems {
		e := &n.elems[i]
		if e.Kind == KindSTE && e.Start != StartNone {
			reachable[i] = true
			queue = append(queue, ElementID(i))
		}
		// Gates that compute true on all-inactive inputs (NOT/NOR/NAND)
		// are live regardless of upstream reachability.
		if e.Kind == KindGate && (e.Op == GateNot || e.Op == GateNor || e.Op == GateNand) {
			reachable[i] = true
			queue = append(queue, ElementID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range n.outs[id] {
			if !reachable[e.To] {
				reachable[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return n.compact(reachable)
}

// PruneNonProductive returns a copy of n without elements that cannot
// contribute to any report: elements with no path to a reporting element.
func (n *Network) PruneNonProductive() *Network {
	productive := make([]bool, n.Len())
	var queue []ElementID
	for i := range n.elems {
		if n.elems[i].Report {
			productive[i] = true
			queue = append(queue, ElementID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, e := range n.ins[id] {
			if !productive[e.From] {
				productive[e.From] = true
				queue = append(queue, e.From)
			}
		}
	}
	return n.compact(productive)
}

// MergePrefixes repeatedly merges STEs that have identical signatures and
// identical in-edge sets (the left-to-right analogue of common prefix
// sharing in tries). This is one of the transformations placement tools
// apply to reduce device STE counts. It returns the optimized copy.
func (n *Network) MergePrefixes() *Network {
	return n.mergeEquivalent(true)
}

// MergeSuffixes repeatedly merges STEs that have identical signatures and
// identical out-edge sets (common suffix sharing).
func (n *Network) MergeSuffixes() *Network {
	return n.mergeEquivalent(false)
}

// mergeEquivalent merges, round after round until none is left, STEs with
// equal behaviour and equal key-side edge sets (in-edges when byIns,
// out-edges otherwise). A round folds each group into its lowest id, the
// groups taken in ascending order of that id, by redirecting the other
// members' other-side edges onto it. Edge lists are edited in place, a
// round re-keys only the elements whose key-side edges the round before
// changed, and one compact at the end drops the merged elements.
func (n *Network) mergeEquivalent(byIns bool) *Network {
	cur := n.Clone()
	m := &merger{net: cur, byIns: byIns, owner: make(map[mergeKey]ElementID, cur.Len()),
		keys: make([]*mergeKey, cur.Len()), live: make([]bool, cur.Len())}
	dirty := make([]ElementID, cur.Len())
	for i := range dirty {
		dirty[i], m.live[i] = ElementID(i), true
	}
	for groups := m.regroup(dirty); len(groups) > 0; groups = m.regroup(dirty) {
		dirty = m.merge(groups)
	}
	return cur.compact(m.live)
}

// mergeKey is what two STEs must share to merge: their behaviour and their
// sorted key-side (neighbour, port) pairs, uvarint-encoded.
type mergeKey struct {
	class  charclass.Class
	start  StartKind
	report bool
	code   int
	edges  string
}

// merger is mergeEquivalent's state between rounds: each element's key
// (nil when it has none) and, for each key, the one live element holding
// it once the round's merges are done.
type merger struct {
	net   *Network
	byIns bool
	owner map[mergeKey]ElementID
	keys  []*mergeKey
	live  []bool
	pairs []uint64 // key scratch
	buf   []byte
}

// regroup re-keys the dirty elements and returns the keys they now share
// with another element: members ascending, groups by ascending first member.
func (m *merger) regroup(dirty []ElementID) [][]ElementID {
	for _, id := range dirty {
		if k := m.keys[id]; k != nil && m.owner[*k] == id {
			delete(m.owner, *k)
		}
		m.keys[id] = m.key(id)
	}
	touched := make(map[mergeKey][]ElementID, len(dirty))
	for _, id := range dirty {
		if k := m.keys[id]; k != nil {
			if o, ok := m.owner[*k]; ok {
				touched[*k] = append(touched[*k], o)
				delete(m.owner, *k)
			}
			touched[*k] = append(touched[*k], id)
		}
	}
	var groups [][]ElementID
	for k, ids := range touched {
		slices.Sort(ids)
		if m.owner[k] = ids[0]; len(ids) > 1 {
			groups = append(groups, ids)
		}
	}
	slices.SortFunc(groups, func(a, b []ElementID) int { return cmp.Compare(a[0], b[0]) })
	return groups
}

// key returns id's key, or nil when id is not an STE or has a self-loop,
// which would make its key depend on its identity.
func (m *merger) key(id ElementID) *mergeKey {
	e, edges := &m.net.elems[id], m.net.outs[id]
	if m.byIns {
		edges = m.net.ins[id]
	}
	if e.Kind != KindSTE {
		return nil
	}
	m.pairs = m.pairs[:0]
	for _, ed := range edges {
		if ed.From == ed.To {
			return nil
		}
		m.pairs = append(m.pairs, uint64(ed.From^ed.To^id)<<8|uint64(ed.Port)) // the end that is not id
	}
	slices.Sort(m.pairs)
	m.buf = m.buf[:0]
	for _, p := range m.pairs {
		m.buf = binary.AppendUvarint(m.buf, p)
	}
	return &mergeKey{e.Class, e.Start, e.Report, e.ReportCode, string(m.buf)}
}

// merge folds each group's other members into its first, in group order,
// then drops the folded elements' edges from their neighbours' lists (the
// other edges keep their order) and returns the neighbours whose key-side
// edges changed.
func (m *merger) merge(groups [][]ElementID) []ElementID {
	n := m.net
	var dups, dirty []ElementID
	for _, g := range groups {
		for _, dup := range g[1:] {
			if m.byIns {
				for _, e := range n.outs[dup] {
					n.Connect(g[0], e.To, e.Port)
				}
			} else {
				for _, e := range n.ins[dup] {
					n.Connect(e.From, g[0], e.Port)
				}
			}
			m.live[dup] = false
			dups = append(dups, dup)
		}
	}
	rekey := map[ElementID]bool{} // every neighbour; true across an other-side edge
	for _, dup := range dups {
		for _, e := range n.outs[dup] {
			rekey[e.To] = rekey[e.To] || m.byIns
		}
		for _, e := range n.ins[dup] {
			rekey[e.From] = rekey[e.From] || !m.byIns
		}
		n.outs[dup], n.ins[dup] = nil, nil
	}
	dropped := func(e Edge) bool { return !m.live[e.From] || !m.live[e.To] }
	for id, other := range rekey {
		if m.live[id] {
			n.outs[id], n.ins[id] = slices.DeleteFunc(n.outs[id], dropped), slices.DeleteFunc(n.ins[id], dropped)
			if other {
				dirty = append(dirty, id)
			}
		}
	}
	return dirty
}

// SplitHighFanIn duplicates STEs whose activation fan-in exceeds limit,
// modeling the AP routing matrix's bounded row fan-in: placement tools must
// replicate such states, which can increase device STE counts above the
// generated design's count. Incoming activation edges are distributed among
// the copies; all other properties (including out-edges) are duplicated.
func (n *Network) SplitHighFanIn(limit int) *Network {
	if limit <= 0 {
		return n.Clone()
	}
	out := n.Clone()
	for id := 0; id < out.Len(); id++ { // out.Len() grows as we split
		e := &out.elems[id]
		if e.Kind != KindSTE {
			continue
		}
		ins := append([]Edge(nil), out.ins[id]...)
		if len(ins) <= limit {
			continue
		}
		// Keep the first `limit` edges on the original; move the rest to
		// fresh copies in chunks of `limit`.
		for _, ed := range ins[limit:] {
			out.Disconnect(ed.From, ed.To, ed.Port)
		}
		rest := ins[limit:]
		for len(rest) > 0 {
			chunk := rest
			if len(chunk) > limit {
				chunk = chunk[:limit]
			}
			rest = rest[len(chunk):]
			copyID := out.add(Element{
				Kind:       KindSTE,
				Class:      e.Class,
				Start:      e.Start,
				Report:     e.Report,
				ReportCode: e.ReportCode,
				Origin:     e.Origin,
			})
			for _, oe := range out.outs[id] {
				out.Connect(copyID, oe.To, oe.Port)
			}
			for _, ie := range chunk {
				out.Connect(ie.From, copyID, ie.Port)
			}
			e = &out.elems[id] // re-take pointer: add may have reallocated
		}
	}
	return out
}

// OptimizeForDevice applies the transformation pipeline placement tools
// perform before mapping a design onto the device: drop unreachable and
// non-productive elements, share common prefixes and suffixes, then enforce
// the routing fan-in bound. fanInLimit <= 0 disables splitting.
func (n *Network) OptimizeForDevice(fanInLimit int) *Network {
	out := n.PruneUnreachable().PruneNonProductive()
	out = out.MergePrefixes().MergeSuffixes()
	if fanInLimit > 0 {
		out = out.SplitHighFanIn(fanInLimit)
	}
	out.Name = n.Name
	return out
}
