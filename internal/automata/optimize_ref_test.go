package automata

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// This file keeps the round-based merge that mergeEquivalent replaced, as
// the oracle the worklist merge must reproduce byte for byte. Every round
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

// ReferenceOptimizeForDevice is OptimizeForDevice with the reference merge.
func ReferenceOptimizeForDevice(n *Network, fanInLimit int) *Network {
	out := n.PruneUnreachable().PruneNonProductive()
	out = out.referenceMerge(true).referenceMerge(false)
	if fanInLimit > 0 {
		out = out.SplitHighFanIn(fanInLimit)
	}
	out.Name = n.Name
	return out
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
