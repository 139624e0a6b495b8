package automata

import (
	"fmt"
	"sort"

	"repro/internal/charclass"
)

// Network is a homogeneous automaton: a set of elements plus directed
// connections between them. The zero value is an empty network ready to use.
//
// Network is the mutable builder half of a build/freeze split: construction
// paths (codegen, ANML unmarshalling, generators, optimization passes)
// assemble a Network, then Freeze produces the immutable struct-of-arrays
// Topology that every read-side consumer (simulators, determinization,
// placement, marshalling) operates on. After a successful Freeze the
// builder is sealed: mutators and the mutable-pointer accessors panic.
type Network struct {
	// Name identifies the network (used as the ANML automata-network id).
	Name string

	elems []Element
	// outs[id] lists out-edges of element id; ins[id] lists in-edges.
	outs [][]Edge
	ins  [][]Edge

	freezeGuard
}

// NewNetwork returns an empty network with the given name.
func NewNetwork(name string) *Network {
	return &Network{Name: name}
}

// Len returns the number of elements in the network.
func (n *Network) Len() int { return len(n.elems) }

// Element returns the element with the given id, for mutation during
// construction. Mutations through the pointer are visible to the network,
// but callers must not change the ID or Kind, and the pointer is only
// valid until the next element is added: add grows the backing slice,
// which may reallocate it and leave earlier pointers dangling. (The old
// contract promised the pointer stayed valid forever — that was never
// true.) Read-side consumers should Freeze the network and use the
// Topology accessors instead; Element panics on a frozen network.
func (n *Network) Element(id ElementID) *Element {
	n.mustBeMutable("Element")
	return &n.elems[id]
}

// Elements calls f for every element in id order. Like Element, it hands
// out mutable pointers and therefore panics on a frozen network; frozen
// consumers iterate the Topology instead.
func (n *Network) Elements(f func(*Element)) {
	n.mustBeMutable("Elements")
	for i := range n.elems {
		f(&n.elems[i])
	}
}

// add appends an element and returns its id.
func (n *Network) add(e Element) ElementID {
	n.mustBeMutable("add")
	id := ElementID(len(n.elems))
	e.ID = id
	n.elems = append(n.elems, e)
	n.outs = append(n.outs, nil)
	n.ins = append(n.ins, nil)
	return id
}

// AddSTE adds a state transition element accepting the given class.
func (n *Network) AddSTE(class charclass.Class, start StartKind) ElementID {
	return n.add(Element{Kind: KindSTE, Class: class, Start: start})
}

// AddCounter adds a latching saturating up-counter with the given target.
func (n *Network) AddCounter(target int) ElementID {
	return n.add(Element{Kind: KindCounter, Target: target, Latch: true})
}

// AddGate adds a boolean gate computing op over its inputs.
func (n *Network) AddGate(op GateOp) ElementID {
	return n.add(Element{Kind: KindGate, Op: op})
}

// Connect adds an edge from element src to input port of element dst.
// Duplicate edges are ignored.
func (n *Network) Connect(src, dst ElementID, port Port) {
	n.mustBeMutable("Connect")
	for _, e := range n.outs[src] {
		if e.To == dst && e.Port == port {
			return
		}
	}
	e := Edge{From: src, To: dst, Port: port}
	n.outs[src] = append(n.outs[src], e)
	n.ins[dst] = append(n.ins[dst], e)
}

// Disconnect removes the edge src→dst on port if present.
func (n *Network) Disconnect(src, dst ElementID, port Port) {
	n.mustBeMutable("Disconnect")
	n.outs[src] = removeEdge(n.outs[src], src, dst, port)
	n.ins[dst] = removeEdge(n.ins[dst], src, dst, port)
}

func removeEdge(edges []Edge, src, dst ElementID, port Port) []Edge {
	for i, e := range edges {
		if e.From == src && e.To == dst && e.Port == port {
			return append(edges[:i:i], edges[i+1:]...)
		}
	}
	return edges
}

// Outs returns the out-edges of element id. The slice must not be modified.
func (n *Network) Outs(id ElementID) []Edge { return n.outs[id] }

// Ins returns the in-edges of element id. The slice must not be modified.
func (n *Network) Ins(id ElementID) []Edge { return n.ins[id] }

// SetReport marks id as a reporting element with the given report code.
func (n *Network) SetReport(id ElementID, code int) {
	n.mustBeMutable("SetReport")
	n.elems[id].Report = true
	n.elems[id].ReportCode = code
}

// Merge copies every element and edge of other into n, returning the id
// offset by which other's ids were shifted. Names are preserved; callers
// that need unique ANML ids should namespace names beforehand.
func (n *Network) Merge(other *Network) ElementID {
	n.mustBeMutable("Merge")
	offset := ElementID(len(n.elems))
	for i := range other.elems {
		e := other.elems[i]
		e.ID += offset
		n.elems = append(n.elems, e)
		n.outs = append(n.outs, nil)
		n.ins = append(n.ins, nil)
	}
	for _, edges := range other.outs {
		for _, e := range edges {
			n.Connect(e.From+offset, e.To+offset, e.Port)
		}
	}
	return offset
}

// Clone returns a deep copy of the network. The copy is always mutable,
// even when n is frozen — clone-then-mutate is how transformation passes
// operate on frozen inputs.
func (n *Network) Clone() *Network {
	return n.compact(nil)
}

// Stats summarizes a network's composition.
type Stats struct {
	STEs      int
	Counters  int
	Gates     int
	Edges     int
	Reporting int
	Starts    int // STEs with a start kind other than StartNone
}

// Stats computes summary statistics for the network.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.elems {
		e := &n.elems[i]
		switch e.Kind {
		case KindSTE:
			s.STEs++
			if e.Start != StartNone {
				s.Starts++
			}
		case KindCounter:
			s.Counters++
		case KindGate:
			s.Gates++
		}
		if e.Report {
			s.Reporting++
		}
		s.Edges += len(n.outs[i])
	}
	return s
}

// Validate checks structural well-formedness: edge ports match destination
// kinds, gates have sane fan-in, counters have positive targets, the
// special-element subgraph (counters and gates) is acyclic, and at least one
// STE has a start kind (otherwise the automaton can never activate).
func (n *Network) Validate() error {
	if n.Len() == 0 {
		return fmt.Errorf("automata: network %q is empty", n.Name)
	}
	hasStart := false
	for i := range n.elems {
		e := &n.elems[i]
		switch e.Kind {
		case KindSTE:
			if e.Class.IsEmpty() {
				return fmt.Errorf("automata: STE %d has empty character class", e.ID)
			}
			if e.Start != StartNone {
				hasStart = true
			}
		case KindCounter:
			if e.Target <= 0 {
				return fmt.Errorf("automata: counter %d has non-positive target %d", e.ID, e.Target)
			}
			hasCount := false
			for _, in := range n.ins[i] {
				if in.Port == PortCount {
					hasCount = true
				}
			}
			if !hasCount {
				return fmt.Errorf("automata: counter %d has no count input", e.ID)
			}
		case KindGate:
			fanIn := len(n.ins[i])
			if fanIn == 0 {
				return fmt.Errorf("automata: gate %d has no inputs", e.ID)
			}
			if e.Op == GateNot && fanIn != 1 {
				return fmt.Errorf("automata: inverter %d has fan-in %d, want 1", e.ID, fanIn)
			}
		}
		for _, out := range n.outs[i] {
			dst := &n.elems[out.To]
			switch out.Port {
			case PortIn:
				if dst.Kind == KindCounter {
					return fmt.Errorf("automata: edge %d->%d drives counter on activation port; use count or reset", out.From, out.To)
				}
			case PortCount, PortReset:
				if dst.Kind != KindCounter {
					return fmt.Errorf("automata: edge %d->%d uses port %v on non-counter", out.From, out.To, out.Port)
				}
			}
		}
	}
	if !hasStart {
		return fmt.Errorf("automata: network %q has no start STE", n.Name)
	}
	if _, err := n.specialOrder(); err != nil {
		return err
	}
	return nil
}

// specialOrder returns counters and gates in a topological order of the
// special-element subgraph (edges between specials only). It reports an
// error if that subgraph has a cycle, which would make combinational
// evaluation ill-defined.
func (n *Network) specialOrder() ([]ElementID, error) {
	indeg := make(map[ElementID]int)
	var specials []ElementID
	for i := range n.elems {
		if n.elems[i].Kind != KindSTE {
			specials = append(specials, ElementID(i))
			indeg[ElementID(i)] = 0
		}
	}
	for _, id := range specials {
		for _, out := range n.outs[id] {
			if n.elems[out.To].Kind != KindSTE {
				indeg[out.To]++
			}
		}
	}
	queue := make([]ElementID, 0, len(specials))
	for _, id := range specials {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	var order []ElementID
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, out := range n.outs[id] {
			if n.elems[out.To].Kind == KindSTE {
				continue
			}
			indeg[out.To]--
			if indeg[out.To] == 0 {
				queue = append(queue, out.To)
			}
		}
	}
	if len(order) != len(specials) {
		return nil, fmt.Errorf("automata: network %q has a combinational cycle among counters/gates", n.Name)
	}
	return order, nil
}

// ClockDivisor returns the clock divisor the design requires on the AP.
// The first-generation AP halves the clock when a counter output feeds a
// combinatorial element (the signal-propagation limitation the paper notes
// for the RAPID MOTOMATA design); otherwise the divisor is 1.
func (n *Network) ClockDivisor() int {
	for i := range n.elems {
		if n.elems[i].Kind != KindCounter {
			continue
		}
		for _, out := range n.outs[i] {
			if n.elems[out.To].Kind == KindGate {
				return 2
			}
		}
	}
	return 1
}
