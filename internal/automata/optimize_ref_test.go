package automata

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// This file keeps the round-based merge that the worklist merge replaced,
// as the oracle it must reproduce byte for byte. Every round
// keys every STE with strings, groups the keys in a map and rebuilds the
// whole network with compact. The one change from the original is that
// the groups are taken in ascending order of their representative instead
// of map order, which made the original's suffix merge nondeterministic.

func refSignature(e *Element) string {
	return fmt.Sprintf("%s|%d|%v|%d", e.Class.String(), e.Start, e.Report, e.ReportCode)
}

func refEdgeSetKey(edges []Edge, useFrom bool) string {
	keys := make([]string, len(edges))
	for i, e := range edges {
		if useFrom {
			keys[i] = fmt.Sprintf("%d:%d", e.From, e.Port)
		} else {
			keys[i] = fmt.Sprintf("%d:%d", e.To, e.Port)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func (n *Network) referenceMerge(byIns bool) *Network {
	cur := n.Clone()
	for {
		groups := make(map[string][]ElementID)
		for i := range cur.elems {
			e := &cur.elems[i]
			if e.Kind != KindSTE {
				continue
			}
			edges := cur.outs[i]
			if byIns {
				edges = cur.ins[i]
			}
			selfLoop := false
			for _, ed := range edges {
				if ed.From == ed.To {
					selfLoop = true
				}
			}
			if selfLoop {
				continue
			}
			key := refSignature(e) + "#" + refEdgeSetKey(edges, byIns)
			groups[key] = append(groups[key], ElementID(i))
		}
		var ordered [][]ElementID
		for _, ids := range groups {
			if len(ids) > 1 {
				ordered = append(ordered, ids)
			}
		}
		if len(ordered) == 0 {
			return cur
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i][0] < ordered[j][0] })
		keep := make([]bool, cur.Len())
		for i := range keep {
			keep[i] = true
		}
		for _, ids := range ordered {
			rep := ids[0]
			for _, dup := range ids[1:] {
				if byIns {
					for _, e := range cur.outs[dup] {
						cur.Connect(rep, e.To, e.Port)
					}
				} else {
					for _, e := range cur.ins[dup] {
						cur.Connect(e.From, rep, e.Port)
					}
				}
				keep[dup] = false
			}
		}
		cur = cur.compact(keep)
	}
}

// refPruneUnreachable returns a copy of n without elements that can never
// activate: elements with no path from a start STE. Counter reset edges are
// treated as ordinary connectivity.
func (n *Network) refPruneUnreachable() *Network {
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

// refPruneNonProductive returns a copy of n without elements that cannot
// contribute to any report: elements with no path to a reporting element.
func (n *Network) refPruneNonProductive() *Network {
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

// refSplitHighFanIn returns a copy of n in which every STE with more than
// limit in-edges keeps its first limit and hands the rest, limit at a time,
// to fresh copies of itself with its out-edges.
func (n *Network) refSplitHighFanIn(limit int) *Network {
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

// ReferenceOptimizeForDevice is OptimizeForDevice as separate passes, each
// on its own copy: prune the unreachable, then the non-productive
// elements, merge prefixes and suffixes round by round, then split high
// fan-in. It shares only compact and the builder methods with the code it
// checks.
func ReferenceOptimizeForDevice(n *Network, fanInLimit int) *Network {
	out := n.refPruneUnreachable().refPruneNonProductive()
	out = out.referenceMerge(true).referenceMerge(false)
	if fanInLimit > 0 {
		out = out.refSplitHighFanIn(fanInLimit)
	}
	out.Name = n.Name
	return out
}

// CheckedOptimizeForDevice is OptimizeForDevice with checkIndex run on the
// merge index when each pass begins and after every round. It returns the
// first violation.
func CheckedOptimizeForDevice(n *Network, fanInLimit int) (*Network, error) {
	work := n.compact(n.liveMask())
	m := newMerger(work)
	for _, byIns := range []bool{true, false} {
		pass := "prefix"
		if !byIns {
			work.relink()
			pass = "suffix"
		}
		m.begin(byIns)
		for round := 0; ; round++ {
			if err := m.checkIndex(); err != nil {
				return nil, fmt.Errorf("%s %s pass, round %d: %w", n.Name, pass, round, err)
			}
			if !m.round() {
				break
			}
		}
	}
	out := work.compact(m.live)
	out.splitHighFanIn(fanInLimit)
	return out, nil
}

// checkIndex verifies the merge index between rounds: every live keyed
// element's recorded hash is its key's, a probe from that hash finds the
// element itself, and the index holds as many entries as there are live
// keyed elements, so it holds exactly them, each once.
func (m *merger) checkIndex() error {
	entries, keyed := 0, 0
	for _, e := range m.index {
		if e >= 0 {
			entries++
		}
	}
	for id := range m.el {
		el := &m.el[id]
		if !m.live[id] || el.klen < 0 {
			continue
		}
		keyed++
		if h := m.hashKey(ElementID(id)); el.hash != h {
			return fmt.Errorf("element %d records hash %#x, its key hashes to %#x", id, el.hash, h)
		}
		if e := m.index[m.find(ElementID(id))]; e != int32(id) {
			return fmt.Errorf("a probe for element %d's key finds entry %d", id, e)
		}
	}
	if entries != keyed {
		return fmt.Errorf("index holds %d entries for %d live keyed elements", entries, keyed)
	}
	return nil
}

// SameNetwork describes the first difference between a and b: in name, in
// element order or attributes, or in the content or order of any edge list.
// It returns nil when the two are identical.
func SameNetwork(a, b *Network) error {
	if a.Name != b.Name || a.Len() != b.Len() {
		return fmt.Errorf("network %q has %d elements, %q has %d", a.Name, a.Len(), b.Name, b.Len())
	}
	for i := range a.elems {
		switch {
		case !reflect.DeepEqual(a.elems[i], b.elems[i]):
			return fmt.Errorf("element %d: %+v != %+v", i, a.elems[i], b.elems[i])
		case !reflect.DeepEqual(a.outs[i], b.outs[i]):
			return fmt.Errorf("element %d outs: %v != %v", i, a.outs[i], b.outs[i])
		case !reflect.DeepEqual(a.ins[i], b.ins[i]):
			return fmt.Errorf("element %d ins: %v != %v", i, a.ins[i], b.ins[i])
		}
	}
	return nil
}
