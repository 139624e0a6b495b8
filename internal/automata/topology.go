package automata

import (
	"sync"
	"sync/atomic"

	"repro/internal/charclass"
)

// Topology is the frozen, immutable struct-of-arrays view of a Network,
// produced once by Network.Freeze. Where the builder stores a slice of
// Element structs plus per-element edge slices (a pointer graph the CPU
// chases), the topology packs every per-element attribute into its own
// dense flat array and both edge directions into CSR-style arrays: all
// edges live in one contiguous slice of int32-indexed TopoEdge records,
// and a per-element offset array delimits each element's span. This is
// the same dense integer layout the device model in internal/ap uses for
// the physical memory array, and it is what makes simulator clones a few
// slice copies and the transition loop word-parallel.
//
// A Topology is immutable and safe for concurrent use by any number of
// goroutines. Accessors do not copy: returned slices alias the frozen
// arrays and must not be modified.
type Topology struct {
	// Name is the network name the topology was frozen from.
	Name string

	kind   []Kind
	class  []charclass.Class
	start  []StartKind
	target []int32
	latch  []bool
	op     []GateOp
	report []bool
	code   []int32
	name   []string
	origin []string

	// CSR edge layout: outEdges[outOff[id]:outOff[id+1]] are the
	// out-edges of id (Node = destination); inEdges[inOff[id]:inOff[id+1]]
	// are the in-edges (Node = source). Port is carried per edge.
	outEdges []TopoEdge
	outOff   []int32
	inEdges  []TopoEdge
	inOff    []int32

	specials []ElementID // counters and gates in combinational order
	stats    Stats
	divisor  int

	// Step tables, built on first use (see Kernel).
	kernelOnce sync.Once
	kernel     *Kernel
}

// TopoEdge is one edge endpoint in a frozen topology: the neighbor's
// element index and the input port the edge drives. For an out-edge of
// element e, Node is the destination and the edge is e→Node; for an
// in-edge, Node is the source and the edge is Node→e. Edges always drive
// the Port input of the edge's destination.
type TopoEdge struct {
	Node int32
	Port Port
}

// Freeze validates the network and returns its immutable struct-of-arrays
// Topology. The first successful call freezes the network: every later
// mutation (AddSTE, Connect, SetReport, Merge, ...) panics, and
// Element/Elements — which hand out mutable pointers — panic too, so the
// builder/frozen boundary is enforced rather than advisory. Repeated
// calls return the same Topology. A failed Freeze (invalid network)
// leaves the network mutable. Clone always returns an unfrozen copy, so
// transformation passes that clone-then-mutate keep working on frozen
// inputs.
func (n *Network) Freeze() (*Topology, error) {
	n.freezeMu.Lock()
	defer n.freezeMu.Unlock()
	if t := n.frozen.Load(); t != nil {
		return t, nil
	}
	specials, err := n.validate()
	if err != nil {
		return nil, err
	}
	ln := n.Len()
	t := &Topology{
		Name:     n.Name,
		kind:     make([]Kind, ln),
		class:    make([]charclass.Class, ln),
		start:    make([]StartKind, ln),
		target:   make([]int32, ln),
		latch:    make([]bool, ln),
		op:       make([]GateOp, ln),
		report:   make([]bool, ln),
		code:     make([]int32, ln),
		name:     make([]string, ln),
		origin:   make([]string, ln),
		outOff:   make([]int32, ln+1),
		inOff:    make([]int32, ln+1),
		specials: specials,
		stats:    n.Stats(),
		divisor:  n.ClockDivisor(),
	}
	nedges := 0
	for i := range n.elems {
		nedges += len(n.outs[i])
	}
	t.outEdges = make([]TopoEdge, 0, nedges)
	t.inEdges = make([]TopoEdge, 0, nedges)
	for i := range n.elems {
		e := &n.elems[i]
		t.kind[i] = e.Kind
		t.class[i] = e.Class
		t.start[i] = e.Start
		t.target[i] = int32(e.Target)
		t.latch[i] = e.Latch
		t.op[i] = e.Op
		t.report[i] = e.Report
		t.code[i] = int32(e.ReportCode)
		t.name[i] = e.Name
		t.origin[i] = e.Origin
		for _, out := range n.outs[i] {
			t.outEdges = append(t.outEdges, TopoEdge{Node: int32(out.To), Port: out.Port})
		}
		t.outOff[i+1] = int32(len(t.outEdges))
		for _, in := range n.ins[i] {
			t.inEdges = append(t.inEdges, TopoEdge{Node: int32(in.From), Port: in.Port})
		}
		t.inOff[i+1] = int32(len(t.inEdges))
	}
	n.frozen.Store(t)
	return t, nil
}

// MustFreeze is Freeze for networks known to be valid; it panics on error.
// Intended for tests and for construction sites that have already
// validated.
func (n *Network) MustFreeze() *Topology {
	t, err := n.Freeze()
	if err != nil {
		panic(err)
	}
	return t
}

// Frozen reports whether the network has been frozen by a successful
// Freeze call.
func (n *Network) Frozen() bool { return n.frozen.Load() != nil }

// freezeGuard holds the frozen-topology state embedded in Network: the
// cached Topology and the mutex serializing concurrent Freeze calls. The
// zero value leaves the network mutable.
type freezeGuard struct {
	frozen   atomic.Pointer[Topology]
	freezeMu sync.Mutex
}

// mustBeMutable is called by every mutator and by the mutable-pointer
// accessors (Element, Elements); it panics once the network is frozen.
func (g *freezeGuard) mustBeMutable(op string) {
	if g.frozen.Load() != nil {
		panic("automata: " + op + " on frozen network (Freeze was called; Clone the network to mutate)")
	}
}

// Len returns the number of elements.
func (t *Topology) Len() int { return len(t.kind) }

// Kind returns the element's kind.
func (t *Topology) Kind(id ElementID) Kind { return t.kind[id] }

// Class returns an STE's character class (zero for non-STEs).
func (t *Topology) Class(id ElementID) charclass.Class { return t.class[id] }

// Start returns an STE's start kind (StartNone for non-STEs).
func (t *Topology) Start(id ElementID) StartKind { return t.start[id] }

// Target returns a counter's threshold (zero for non-counters).
func (t *Topology) Target(id ElementID) int { return int(t.target[id]) }

// Latch reports whether a counter latches its output.
func (t *Topology) Latch(id ElementID) bool { return t.latch[id] }

// Op returns a gate's boolean operation (GateAnd for non-gates).
func (t *Topology) Op(id ElementID) GateOp { return t.op[id] }

// Reports reports whether the element is a reporting element.
func (t *Topology) Reports(id ElementID) bool { return t.report[id] }

// ReportCode returns the element's report code.
func (t *Topology) ReportCode(id ElementID) int { return int(t.code[id]) }

// NameOf returns the element's optional symbolic name.
func (t *Topology) NameOf(id ElementID) string { return t.name[id] }

// Origin returns the element's provenance annotation.
func (t *Topology) Origin(id ElementID) string { return t.origin[id] }

// Outs returns the element's out-edges; each Node is a destination. The
// slice aliases the frozen CSR arrays and must not be modified.
func (t *Topology) Outs(id ElementID) []TopoEdge {
	return t.outEdges[t.outOff[id]:t.outOff[id+1]]
}

// Ins returns the element's in-edges; each Node is a source. The slice
// aliases the frozen CSR arrays and must not be modified.
func (t *Topology) Ins(id ElementID) []TopoEdge {
	return t.inEdges[t.inOff[id]:t.inOff[id+1]]
}

// Specials returns the counters and gates in combinational evaluation
// order. The slice must not be modified.
func (t *Topology) Specials() []ElementID { return t.specials }

// Pure reports whether the topology contains only STEs.
func (t *Topology) Pure() bool { return len(t.specials) == 0 }

// Stats returns the summary statistics captured at freeze time.
func (t *Topology) Stats() Stats { return t.stats }

// ClockDivisor returns the AP clock divisor the design requires (see
// Network.ClockDivisor).
func (t *Topology) ClockDivisor() int { return t.divisor }

// EdgeCount returns the total number of edges.
func (t *Topology) EdgeCount() int { return len(t.outEdges) }

// Run simulates the topology over input on a fresh fast simulator and
// returns the report events.
func (t *Topology) Run(input []byte) []Report {
	return t.NewFastSimulator().Run(input)
}
