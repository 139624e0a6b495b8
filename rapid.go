// Package rapid is a from-scratch implementation of RAPID, the high-level
// language for programming pattern-recognition processors introduced by
// Angstadt, Weimer, and Skadron (ASPLOS 2016).
//
// The package compiles RAPID programs — a combined imperative/declarative
// model built around macros, networks, and the parallel control structures
// either/orelse, some, and whenever — into homogeneous non-deterministic
// finite automata for Micron's Automata Processor (AP), and provides:
//
//   - a functional device model that executes compiled designs in
//     lock-step against input streams and produces report events;
//   - a reference interpreter executing the language's parallel-thread
//     semantics directly (useful as an oracle and for debugging);
//   - ANML (Automata Network Markup Language) import and export;
//   - placement and routing with the paper's three compilation flows,
//     including the auto-tuning tessellation optimization of Section 6;
//   - a regular-expression front end (Glushkov construction) for baseline
//     comparisons.
//
// # Quick start
//
//	prog, err := rapid.Parse(src)            // parse + type check
//	design, err := prog.Compile(args...)     // staged compilation to NFA
//	reports, err := design.RunBytes(input)   // simulate the device
//	anmlBytes, err := design.ANML()          // export ANML
//	tess, err := prog.Tessellate(args...)    // Section 6 tessellation
//
// Every execution path follows one signature convention: the run methods
// are context-first — Run(ctx, input) ([]Report, error) — and Design adds
// a RunBytes convenience wrapper using context.Background(). Backends
// are constructed uniformly through Design.Backend(kind), with functional
// options (WithWorkers, WithTelemetry) shared across constructors.
package rapid

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/anml"
	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/lang/interp"
	"repro/internal/lang/value"
	"repro/internal/place"
	"repro/internal/regexcomp"
)

// StartOfInput is the reserved stream symbol (0xFF) marking the start of
// data and separating logical records. Negated character classes and
// ALL_INPUT never match it.
const StartOfInput byte = 0xFF

// Value is a compile-time value passed as a network argument.
type Value = value.Value

// Str returns a RAPID String value.
func Str(s string) Value { return value.Str(s) }

// Int returns a RAPID int value.
func Int(n int) Value { return value.Int(int64(n)) }

// Char returns a RAPID char value.
func Char(b byte) Value { return value.Char(b) }

// Bool returns a RAPID bool value.
func Bool(b bool) Value { return value.Bool(b) }

// Strings returns a RAPID String[] value.
func Strings(ss []string) Value { return value.Strings(ss) }

// Ints returns a RAPID int[] value.
func Ints(xs []int) Value { return value.Ints(xs) }

// Array returns a RAPID array of the given elements.
func Array(elems ...Value) Value { return value.Array(elems) }

// Program is a parsed and type-checked RAPID program.
type Program struct {
	p *core.Program
}

// Parse parses and type-checks RAPID source code.
func Parse(src string) (*Program, error) {
	p, err := core.Load(src)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// ParseFile parses and type-checks a RAPID source file.
func ParseFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(data))
}

// Params returns the network parameter names in declaration order.
func (p *Program) Params() []string { return p.p.Params() }

// Compile lowers the program applied to the given network arguments into a
// device design via staged computation: imperative statements execute now,
// stream comparisons and counters become automaton structures.
func (p *Program) Compile(args ...Value) (*Design, error) {
	return p.CompileNamed("rapid", args...)
}

// CompileNamed is Compile with an explicit network name for the ANML
// output.
func (p *Program) CompileNamed(name string, args ...Value) (*Design, error) {
	res, err := p.p.Compile(args, &codegen.Options{NetworkName: name})
	if err != nil {
		return nil, err
	}
	return &Design{net: res.Network, reports: res.Reports}, nil
}

// Interpret executes the program's parallel-thread semantics directly over
// input (the reference interpreter) and returns the distinct report
// offsets in increasing order.
func (p *Program) Interpret(args []Value, input []byte) ([]int, error) {
	reports, err := p.p.Interpret(args, input, nil)
	if err != nil {
		return nil, err
	}
	return interp.Offsets(reports), nil
}

// Design is a compiled automaton network ready for simulation, export, or
// placement.
type Design struct {
	net     *automata.Network
	reports map[int]string

	// dev is the design's device network (see device), derived once.
	devOnce sync.Once
	dev     *automata.Network
	// placed is the validated placement of dev, if EnsurePlaced has run.
	placed *place.Placement
	// rawPlacement is an artifact placement section awaiting validation
	// (see EnsurePlaced).
	rawPlacement *artifactPlacement
}

// Stats summarizes a design's composition.
type Stats struct {
	STEs         int
	Counters     int
	BooleanGates int
	Edges        int
	Reporting    int
	ClockDivisor int
}

// Stats returns the design's composition statistics.
func (d *Design) Stats() Stats {
	s := d.net.Stats()
	return Stats{
		STEs:         s.STEs,
		Counters:     s.Counters,
		BooleanGates: s.Gates,
		Edges:        s.Edges,
		Reporting:    s.Reporting,
		ClockDivisor: d.net.ClockDivisor(),
	}
}

// Report is a report event, what every backend returns: a reporting element
// was active while processing the symbol at Offset. Code identifies the
// report statement instance; Design.Site maps it to its source location.
type Report = automata.Report

// Site describes the source location of the report statement instance
// code, "" when unknown. Reports carry only the code, as the device's
// report events do; the host resolves a code when it prints or encodes it.
func (d *Design) Site(code int) string { return d.reports[code] }

// Sites returns a copy of the design's code → site table (see Site).
func (d *Design) Sites() map[int]string { return maps.Clone(d.reports) }

// Run simulates the design in lock-step over input, exactly as the AP
// executes it, and returns all report events in offset order. The
// simulation proceeds in chunks and aborts promptly with ctx.Err() once
// ctx is done, returning the reports produced up to that point.
func (d *Design) Run(ctx context.Context, input []byte) ([]Report, error) {
	return d.net.RunContext(ctx, input)
}

// RunBytes is Run with context.Background().
func (d *Design) RunBytes(input []byte) ([]Report, error) {
	return d.Run(context.Background(), input)
}

// Canonical sorts reports by (offset, code) and drops duplicates in place,
// returning the shortened slice: the form in which two backends' report
// sets compare equal.
func Canonical(reports []Report) []Report { return automata.Canonical(reports) }

// Offsets returns the distinct report offsets of a report list, sorted.
func Offsets(reports []Report) []int {
	if len(reports) == 0 {
		return nil
	}
	out := make([]int, len(reports))
	for i, r := range reports {
		out[i] = r.Offset
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// topology freezes the design's network (validating it on first use) and
// returns the immutable struct-of-arrays view shared by the export and
// analysis paths. Freezing is idempotent; compiled designs are valid, so
// in practice this fails only for hand-assembled invalid ANML imports.
func (d *Design) topology() (*automata.Topology, error) { return d.net.Freeze() }

// ANML renders the design in the Automata Network Markup Language.
func (d *Design) ANML() ([]byte, error) {
	t, err := d.topology()
	if err != nil {
		return nil, err
	}
	return anml.Marshal(t)
}

// WriteANML writes the design's ANML to w.
func (d *Design) WriteANML(w io.Writer) error {
	t, err := d.topology()
	if err != nil {
		return err
	}
	return anml.Write(w, t)
}

// LoadANML parses an ANML document into a design.
func LoadANML(data []byte) (*Design, error) {
	net, err := anml.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return &Design{net: net, reports: map[int]string{}}, nil
}

// device returns the design's device network, place.DeviceNetwork of its
// compiled network. It is derived once per design, so placement, the
// device backend and OptimizeForDevice share one network, and concurrent
// callers are safe.
func (d *Design) device() *automata.Network {
	d.devOnce.Do(func() { d.dev = deviceNetwork(d.net) })
	return d.dev
}

// deviceNetwork derives a device network; a test counts derivations
// through it.
var deviceNetwork = place.DeviceNetwork

// OptimizeForDevice returns the design as the device runs it: the
// transformations placement tools perform before mapping a design onto
// the device (pruning, prefix/suffix sharing, fan-in splitting) applied.
// Its network is the one the device backend steps and placement places.
func (d *Design) OptimizeForDevice() *Design {
	return &Design{net: d.device(), reports: d.reports}
}

// Placement reports the Table 5 placement-and-routing statistics of a
// design on a first-generation AP board.
type Placement struct {
	TotalBlocks      int
	ClockDivisor     int
	STEUtilization   float64
	MeanBRAllocation float64
	// Stamped is the number of component instances placed by the
	// macro-stamping fast path (zero for a purely global placement).
	Stamped          int
	EstimatedRuntime func(symbols int) time.Duration
}

// PlaceAndRoute places the design's device network with the baseline
// global placement flow, reusing a placement already computed or restored
// by EnsurePlaced. It mutates the design as EnsurePlaced does.
func (d *Design) PlaceAndRoute() (*Placement, error) {
	if _, err := d.EnsurePlaced(nil); err != nil {
		return nil, err
	}
	return newPlacement(d.placed.Metrics, d.placed.Stamped), nil
}

func newPlacement(m place.Metrics, stamped int) *Placement {
	return &Placement{
		TotalBlocks:      m.TotalBlocks,
		ClockDivisor:     m.ClockDivisor,
		STEUtilization:   m.STEUtilization,
		MeanBRAllocation: m.MeanBRAlloc,
		Stamped:          stamped,
		EstimatedRuntime: func(symbols int) time.Duration {
			return time.Duration(ap.RuntimeSeconds(symbols, m.ClockDivisor) * float64(time.Second))
		},
	}
}

// Tessellation is the result of the Section 6 auto-tuning tessellation
// optimization.
type Tessellation struct {
	// InstancesPerBlock is the auto-tuned tile density.
	InstancesPerBlock int
	// Instances is the number of pattern instances tiled.
	Instances int
	// TotalBlocks is the board footprint.
	TotalBlocks int
	// Placement reports the board-level statistics of the tiled design.
	Placement *Placement
	// BlockDesign is the repeated one-block design.
	BlockDesign *Design
}

// Tessellate detects the program's repetition structure (a top-level some
// over a network parameter), compiles a single-instance unit, auto-tunes
// how many instances fill one device block, and tiles the result. It fails
// for designs without a tileable repetition.
func (p *Program) Tessellate(args ...Value) (*Tessellation, error) {
	r, err := p.p.Tessellate(args)
	if err != nil {
		return nil, err
	}
	return &Tessellation{
		InstancesPerBlock: r.PerBlock,
		Instances:         r.Instances,
		TotalBlocks:       r.TotalBlocks,
		Placement:         newPlacement(r.Metrics, 0),
		BlockDesign:       &Design{net: r.BlockDesign, reports: map[int]string{}},
	}, nil
}

// Runner is a reusable high-throughput executor for one design's device
// network (the network placement places): it precomputes per-symbol
// acceptance tables once and can then stream many inputs. It is the
// "device" backend.
type Runner struct {
	net *automata.Network       // the device network it steps
	sim *automata.FastSimulator // nil when net is empty
	bm  *backendMetrics         // per-backend stream accounting
}

// NewRunner builds the design's fast execution path over its device
// network. A design whose device network is empty (nothing in it can
// report) gets a runner that reports nothing. Options: WithTelemetry.
func (d *Design) NewRunner(opts ...Option) (*Runner, error) {
	r := &Runner{net: d.device(), bm: newBackendMetrics(applyOptions(opts).tel, string(BackendDevice))}
	if r.net.Len() > 0 {
		sim, err := automata.NewFastSimulator(r.net)
		if err != nil {
			return nil, err
		}
		r.sim = sim
	}
	return r, nil
}

// Run streams input through the design and returns the report events. The
// stream is processed in chunks and aborts promptly with ctx.Err() once
// ctx is done, returning the reports produced up to that point. The
// runner resets between calls and is not safe for concurrent use: give
// each goroutine a runner of its own.
func (r *Runner) Run(ctx context.Context, input []byte) ([]Report, error) {
	start := r.bm.start()
	var out []Report
	var err error
	if r.sim != nil {
		out, err = r.sim.RunContext(ctx, input)
	} else {
		err = ctx.Err()
	}
	r.bm.record(len(input), len(out), err, start)
	return out, err
}

// WriteDot renders the design in Graphviz DOT format for visualization.
func (d *Design) WriteDot(w io.Writer) error { return d.net.WriteDot(w) }

// WriteTrace simulates the design over input and writes a per-cycle
// execution trace (active elements, reports) — the debugging visibility
// the paper's future-work section calls for.
func (d *Design) WriteTrace(w io.Writer, input []byte) error {
	return d.net.WriteTrace(w, input)
}

// FindWitness searches for a shortest input stream that makes the design
// report — the corner-case-input generation tool the paper's future-work
// section calls for. maxLength bounds the search (0 uses the default).
func (d *Design) FindWitness(maxLength int) ([]byte, error) {
	return d.net.FindWitness(&automata.WitnessOptions{MaxLength: maxLength})
}

// Equivalent proves that two counter-free designs report the same codes
// at identical offsets on every possible input, via a joint subset
// construction. It returns nil when equivalent, an error carrying a
// counterexample when not, and ErrHasSpecials-wrapped errors for designs
// with counters or gates (whose equivalence is out of scope).
func (d *Design) Equivalent(other *Design) error {
	ta, err := d.topology()
	if err != nil {
		return err
	}
	tb, err := other.topology()
	if err != nil {
		return err
	}
	return automata.Equivalent(ta, tb)
}

// CompileRegexSet compiles regular expressions into one design via the
// Glushkov construction — the baseline programming model the paper
// compares against; pattern i reports with code i. Patterns are
// unanchored unless they begin with ^.
func CompileRegexSet(patterns []string) (*Design, error) {
	net, err := regexcomp.CompileSet(patterns, "regex-set")
	if err != nil {
		return nil, err
	}
	reports := make(map[int]string, len(patterns))
	for i, p := range patterns {
		reports[i] = fmt.Sprintf("pattern %q", p)
	}
	return &Design{net: net, reports: reports}, nil
}

// ValuesFromJSON decodes network arguments from a JSON array: strings
// become String values, numbers int values, booleans bool values, and
// arrays nested arrays. It is the argument format of the command-line
// tools.
func ValuesFromJSON(data []byte) ([]Value, error) {
	return valuesFromJSON(data)
}
