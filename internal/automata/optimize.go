package automata

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/charclass"
)

// compact returns a copy of n containing only the elements with keep[id]
// set (every element when keep is nil), remapping ids densely and dropping
// edges incident to removed elements. The copy reserves room for exactly
// the kept elements. Out-edge lists keep their order; in-edge lists come
// out ordered by source.
func (n *Network) compact(keep []bool) *Network {
	remap, kept := make([]ElementID, n.Len()), 0
	for i := range remap {
		if remap[i] = NoElement; keep == nil || keep[i] {
			remap[i], kept = ElementID(kept), kept+1
		}
	}
	out := &Network{Name: n.Name, elems: make([]Element, kept)}
	for i, id := range remap {
		if id != NoElement {
			out.elems[id] = n.elems[i]
			out.elems[id].ID = id
		}
	}
	out.link(func(edge func(from, to ElementID, port Port)) {
		for i := range n.elems {
			for _, e := range n.outs[i] {
				if from, to := remap[i], remap[e.To]; from != NoElement && to != NoElement {
					edge(from, to, e.Port) // n has no duplicate edges
				}
			}
		}
	})
	return out
}

// link sets n's edge lists to the edges that each passes to edge, which
// must be distinct and come in source order; link calls each twice. Every
// element's lists are cut from two flat arrays with cap == len, so a later
// Connect copies its list out instead of overwriting a neighbour's.
func (n *Network) link(each func(edge func(from, to ElementID, port Port))) {
	outDeg, inDeg, m := make([]int, n.Len()), make([]int, n.Len()), 0
	each(func(from, to ElementID, _ Port) {
		outDeg[from]++
		inDeg[to]++
		m++
	})
	n.outs, n.ins = cutEdges(outDeg, m), cutEdges(inDeg, m)
	each(func(from, to ElementID, port Port) {
		e := Edge{From: from, To: to, Port: port}
		n.outs[from] = append(n.outs[from], e)
		n.ins[to] = append(n.ins[to], e)
	})
}

// relink rebuilds n's edge lists from its out-lists: out-lists keep their
// order, in-lists come out ordered by source, as compact leaves them.
func (n *Network) relink() {
	outs := n.outs
	n.link(func(edge func(from, to ElementID, port Port)) {
		for _, list := range outs {
			for _, e := range list {
				edge(e.From, e.To, e.Port)
			}
		}
	})
}

// cutEdges returns one empty edge list per degree, cut from one flat array
// of m edges with capacity exactly the degree (nil for degree 0).
func cutEdges(deg []int, m int) [][]Edge {
	flat, lists := make([]Edge, m), make([][]Edge, len(deg))
	for id, d := range deg {
		if d > 0 {
			lists[id], flat = flat[:0:d], flat[d:]
		}
	}
	return lists
}

// OptimizeForDevice applies the transformation pipeline placement tools
// perform before mapping a design onto the device: drop unreachable and
// non-productive elements, share common prefixes and suffixes, then enforce
// the routing fan-in bound. fanInLimit <= 0 disables splitting.
//
// The pipeline prunes n into one working copy, merges on it in place, and
// compacts it once at the end, which drops the merged elements.
func (n *Network) OptimizeForDevice(fanInLimit int) *Network {
	work := n.compact(n.liveMask())
	m := newMerger(work)
	for m.begin(true); m.round(); {
	}
	work.relink() // the suffix pass folds in-edges in source order
	for m.begin(false); m.round(); {
	}
	out := work.compact(m.live)
	out.splitHighFanIn(fanInLimit)
	return out
}

// liveMask marks the elements that can activate (a path from a start STE,
// or from a gate that computes true on all-inactive inputs; counter reset
// edges count as connectivity) and can contribute to a report (a path to a
// reporting element). Everything downstream of a reachable element is
// reachable, so walking back from the reachable reporters through
// reachable elements finds what pruning the unreachable and then the
// non-productive elements would keep.
func (n *Network) liveMask() []bool {
	reachable, live := make([]bool, n.Len()), make([]bool, n.Len())
	queue := make([]ElementID, 0, n.Len())
	visit := func(seen []bool, id ElementID) {
		if !seen[id] {
			seen[id], queue = true, append(queue, id)
		}
	}
	for i := range n.elems {
		if e := &n.elems[i]; e.Kind == KindSTE && e.Start != StartNone ||
			e.Kind == KindGate && (e.Op == GateNot || e.Op == GateNor || e.Op == GateNand) {
			visit(reachable, ElementID(i))
		}
	}
	for k := 0; k < len(queue); k++ {
		for _, e := range n.outs[queue[k]] {
			visit(reachable, e.To)
		}
	}
	queue = queue[:0]
	for i := range n.elems {
		if reachable[i] && n.elems[i].Report {
			visit(live, ElementID(i))
		}
	}
	for k := 0; k < len(queue); k++ {
		for _, e := range n.ins[queue[k]] {
			if reachable[e.From] {
				visit(live, e.From)
			}
		}
	}
	return live
}

// splitHighFanIn duplicates STEs whose activation fan-in exceeds limit,
// modeling the AP routing matrix's bounded row fan-in: placement tools must
// replicate such states, which can increase device STE counts above the
// generated design's count. The original keeps its first limit in-edges;
// the rest go to fresh copies, limit at a time, each with the original's
// properties and out-edges. limit <= 0 splits nothing.
func (n *Network) splitHighFanIn(limit int) {
	if limit <= 0 {
		return
	}
	for id := 0; id < n.Len(); id++ { // n.Len() grows as we split
		e := n.elems[id]
		if e.Kind != KindSTE || len(n.ins[id]) <= limit {
			continue
		}
		rest := slices.Clone(n.ins[id][limit:])
		for _, ed := range rest {
			n.Disconnect(ed.From, ed.To, ed.Port)
		}
		for len(rest) > 0 {
			chunk := rest[:min(limit, len(rest))]
			rest = rest[len(chunk):]
			copyID := n.add(Element{Kind: KindSTE, Class: e.Class, Start: e.Start,
				Report: e.Report, ReportCode: e.ReportCode, Origin: e.Origin})
			for _, oe := range n.outs[id] {
				n.Connect(copyID, oe.To, oe.Port)
			}
			for _, ie := range chunk {
				n.Connect(ie.From, copyID, ie.Port)
			}
		}
	}
}

// merger shares common prefixes and suffixes of one network in place.
// A pass merges, round after round until none is left, STEs with equal
// behaviour and equal key-side edge sets (in-edges when byIns, out-edges
// otherwise). A round folds each group into its lowest id, the groups
// taken in ascending order of that id, by redirecting the other members'
// other-side edges onto it, and the next round re-keys only the elements
// whose key-side edges it changed. Folded elements stay in the network
// with no edges and live unset.
//
// An element's key is its class, start kind, report flag and code, and its
// sorted key-side (neighbour, port) pairs. The pairs sit in the element's
// span of one slab, as long as its key-side degree when the pass began: a
// fold replaces a neighbour's edges with the folded element by at most one
// with its representative, so no key-side list grows within a pass. index is an
// open-addressed table of element ids (-1 empty), more than twice as long
// as the network, probed linearly from each key's hash and compared in
// place. Between rounds it holds exactly the live keyed elements, each the
// one live holder of its key.
type merger struct {
	net     *Network
	byIns   bool
	live    []bool
	el      []mergeElem
	pairs   []uint64
	index   []int32
	epoch   uint32
	dirty   []ElementID   // to re-key in the next round
	touched []ElementID   // this round's chain heads, then its folded elements' neighbours
	members []ElementID   // this round's groups, back to back; cap Len, so never moved
	groups  [][]ElementID // cut from members
}

// mergeElem is an element's merge state.
type mergeElem struct {
	hash      uint64
	off, span int32  // of the element's slab span
	klen      int32  // key pairs in the span; -1 when the element has no key
	class     int32  // dense id of an STE's class
	next      int32  // in this round's chain of the elements sharing a key; -1 ends
	mark      uint32 // epoch of the last chain or neighbour list that took the element
	other     bool   // a folded element's other-side neighbour
}

// newMerger prepares merges over n, whose elements must all be live.
func newMerger(n *Network) *merger {
	m := &merger{net: n, live: make([]bool, n.Len()), el: make([]mergeElem, n.Len()),
		index: make([]int32, 1<<bits.Len(uint(2*n.Len()))), members: make([]ElementID, 0, n.Len())}
	classes := map[charclass.Class]int32{}
	for id := range n.elems {
		m.live[id] = true
		if e := &n.elems[id]; e.Kind == KindSTE {
			if _, ok := classes[e.Class]; !ok {
				classes[e.Class] = int32(len(classes))
			}
			m.el[id].class = classes[e.Class]
		}
	}
	return m
}

// begin starts a pass: it lays out the slab spans, empties the index and
// marks every live element dirty.
func (m *merger) begin(byIns bool) {
	m.byIns, m.dirty = byIns, m.dirty[:0]
	total := int32(0)
	for id := range m.el {
		el := &m.el[id]
		el.off, el.span, el.klen = total, int32(len(m.keySide(ElementID(id)))), -1
		total += el.span
		if m.live[id] {
			m.dirty = append(m.dirty, ElementID(id))
		}
	}
	m.pairs = slices.Grow(m.pairs[:0], int(total))[:total]
	for i := range m.index {
		m.index[i] = -1
	}
}

// keySide returns id's key-side edges.
func (m *merger) keySide(id ElementID) []Edge {
	if m.byIns {
		return m.net.ins[id]
	}
	return m.net.outs[id]
}

// key returns the key pairs in id's span.
func (m *merger) key(id ElementID) []uint64 {
	el := &m.el[id]
	return m.pairs[el.off : el.off+el.klen]
}

// round re-keys the dirty elements, folds every group of elements now
// sharing a key, and reports whether there was one.
func (m *merger) round() bool {
	groups := m.regroup()
	if len(groups) == 0 {
		return false
	}
	m.merge(groups)
	return true
}

// regroup re-keys the dirty elements and returns the keys they now share
// with another element: members ascending, groups by ascending first
// member, which the index holds for the group's key. Each key's holders
// are chained from its head: the owner from an earlier round, or the
// first dirty element to take it.
func (m *merger) regroup() [][]ElementID {
	for _, id := range m.dirty {
		if m.el[id].klen >= 0 { // live and keyed, so in the index
			m.remove(id)
		}
		m.rekey(id)
	}
	m.epoch++
	heads := m.touched[:0]
	for _, id := range m.dirty {
		if m.el[id].klen < 0 {
			continue
		}
		m.el[id].next = -1
		slot := m.find(id)
		switch h := m.index[slot]; {
		case h < 0:
			m.index[slot], m.el[id].mark = int32(id), m.epoch
			heads = append(heads, id)
		case m.el[h].mark != m.epoch:
			m.el[h].mark, m.el[h].next = m.epoch, int32(id)
			heads = append(heads, ElementID(h))
		default:
			m.el[id].next, m.el[h].next = m.el[h].next, int32(id)
		}
	}
	m.members, m.groups, m.touched = m.members[:0], m.groups[:0], heads
	for _, h := range heads {
		lo := len(m.members)
		for x := int32(h); x >= 0; x = m.el[x].next {
			m.members = append(m.members, ElementID(x))
		}
		if g := m.members[lo:]; len(g) > 1 {
			slices.Sort(g)
			m.index[m.find(h)] = int32(g[0])
			m.groups = append(m.groups, g)
		}
	}
	slices.SortFunc(m.groups, func(a, b []ElementID) int { return cmp.Compare(a[0], b[0]) })
	return m.groups
}

// rekey writes id's key into its span and hashes it. An element that is
// not an STE, or has a key-side self-loop (its key would depend on its
// identity), has no key.
func (m *merger) rekey(id ElementID) {
	el, edges := &m.el[id], m.keySide(id)
	if el.klen = -1; m.net.elems[id].Kind != KindSTE {
		return
	}
	key := m.pairs[el.off : el.off+el.span][:len(edges)]
	for i, ed := range edges {
		if ed.From == ed.To {
			return
		}
		key[i] = uint64(ed.From^ed.To^id)<<8 | uint64(ed.Port) // the end that is not id
	}
	slices.Sort(key)
	el.klen = int32(len(key))
	el.hash = m.hashKey(id)
}

// hashKey hashes id's key as it stands in the slab, all but the report
// flag, which rarely tells two otherwise equal keys apart.
func (m *merger) hashKey(id ElementID) uint64 {
	e := &m.net.elems[id]
	h := uint64(m.el[id].class)<<40 ^ uint64(e.Start)<<32 ^ uint64(uint32(e.ReportCode))
	for _, w := range m.key(id) {
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 29)
	}
	return bits.RotateLeft64(h*0x9e3779b97f4a7c15, 29) // the index probes from the low bits
}

// find returns the index position holding an element with id's key, or
// the empty position where id would go.
func (m *merger) find(id ElementID) int {
	mask, a, ea := len(m.index)-1, &m.el[id], &m.net.elems[id]
	for i := int(a.hash) & mask; ; i = (i + 1) & mask {
		e := m.index[i]
		if e < 0 {
			return i
		}
		if b, eb := &m.el[e], &m.net.elems[e]; b.hash == a.hash && b.class == a.class && eb.Start == ea.Start &&
			eb.Report == ea.Report && eb.ReportCode == ea.ReportCode && slices.Equal(m.key(ElementID(e)), m.key(id)) {
			return i
		}
	}
}

// remove deletes id, which the index holds, by backward shift: each later
// entry of its probe run moves into the hole unless the hole lies before
// that entry's home, and the run ends at the first empty entry.
func (m *merger) remove(id ElementID) {
	mask := len(m.index) - 1
	hole := m.find(id)
	for i := (hole + 1) & mask; m.index[i] >= 0; i = (i + 1) & mask {
		if home := int(m.el[m.index[i]].hash) & mask; (i-home)&mask >= (i-hole)&mask {
			m.index[hole], hole = m.index[i], i
		}
	}
	m.index[hole] = -1
}

// redirect moves was, an other-side edge of a folded element, onto the
// group's representative as now, unless the representative has it already.
// now goes at the end of both lists, as Connect would put it, and was
// leaves the neighbour's list at once, as it would when merge drops the
// folded elements' edges: the neighbour's list keeps its order and its
// length, so only the representative's grows.
func (m *merger) redirect(was, now Edge) {
	n := m.net
	if slices.Contains(n.outs[now.From], now) {
		return
	}
	own, theirs := &n.outs[now.From], &n.ins[now.To]
	if !m.byIns {
		own, theirs = theirs, own
	}
	i := slices.Index(*theirs, was)
	*own, *theirs = append(*own, now), append(slices.Delete(*theirs, i, i+1), now)
}

// merge folds each group's other members into its first, in group order,
// then drops the folded elements' edges from their neighbours' lists (the
// other edges keep their order) and sets dirty to the neighbours whose
// key-side edges changed.
func (m *merger) merge(groups [][]ElementID) {
	n := m.net
	for _, g := range groups {
		for _, dup := range g[1:] {
			if m.byIns {
				for _, e := range n.outs[dup] {
					m.redirect(e, Edge{From: g[0], To: e.To, Port: e.Port})
				}
			} else {
				for _, e := range n.ins[dup] {
					m.redirect(e, Edge{From: e.From, To: g[0], Port: e.Port})
				}
			}
			m.live[dup] = false
		}
	}
	m.epoch++
	m.touched = m.touched[:0]
	touch := func(id ElementID, other bool) {
		if el := &m.el[id]; el.mark != m.epoch {
			el.mark, el.other = m.epoch, other
			m.touched = append(m.touched, id)
		} else {
			el.other = el.other || other
		}
	}
	for _, g := range groups {
		for _, dup := range g[1:] {
			for _, e := range n.outs[dup] {
				touch(e.To, m.byIns)
			}
			for _, e := range n.ins[dup] {
				touch(e.From, !m.byIns)
			}
			n.outs[dup], n.ins[dup] = nil, nil
		}
	}
	dropped := func(e Edge) bool { return !m.live[e.From] || !m.live[e.To] }
	m.dirty = m.dirty[:0]
	for _, id := range m.touched {
		if m.live[id] {
			n.outs[id], n.ins[id] = slices.DeleteFunc(n.outs[id], dropped), slices.DeleteFunc(n.ins[id], dropped)
			if m.el[id].other {
				m.dirty = append(m.dirty, id)
			}
		}
	}
}
