// Package conformance is the differential testing harness: it runs one
// RAPID program across every execution tier and a chain of structural
// round-trips, asserting that all of them agree with the language
// semantics as defined by the interpreter oracle.
//
// Five checks per (program, input):
//
//  1. oracle     — the tree-walking interpreter's distinct report
//     offsets match the compiled reference simulation.
//  2. backends   — every Design.Backend kind (device, lazy-dfa,
//     reference) plus the lazy-DFA engine's batch path produce
//     identical (offset, code) report sets. The batch runs on one
//     worker over the inputs padded to a multiple of lazydfa.Lanes, so
//     every group walks four ragged lanes down to its one-lane tail.
//  3. printer    — parse → print → parse → compile yields a design
//     with identical reports.
//  4. anml       — ANML marshal → unmarshal yields a design with
//     identical reports.
//  5. snapshot   — a FastSimulator snapshotted mid-stream and resumed
//     (and then rewound and resumed again) reports exactly like an
//     uninterrupted run.
//
// And one per program:
//
//  6. segments   — Engine.Run over the case's inputs framed as records
//     (FrameRecords) and repeated to longStreamBytes, a lone stream an
//     engine of two workers walks as 16 KiB spans on two matchers when a
//     helper is idle, each span as speculative segments, matches the
//     reference backend; and so does the same stream through a
//     lazydfa.Matcher on a fixed cache of 5–9 states, which evicts, and
//     through one under a byte cap small enough to demote.
//
// Every backend kind must construct for every case; a construction
// failure is an error. Interpreter runs that hit resource limits are
// counted as skips, not failures.
package conformance

import (
	"context"
	"fmt"
	"slices"
	"strings"

	rapid "repro"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/lang/interp"
	"repro/internal/lang/printer"
	"repro/internal/lang/value"
	"repro/internal/lazydfa"
)

// Case is one conformance unit: a program, its network arguments, and
// the input streams to drive it with.
type Case struct {
	Source string
	Args   []value.Value
	Inputs [][]byte
	Seed   int64 // generator seed when known (0 otherwise); informational
}

// Failure is one divergence between two execution paths.
type Failure struct {
	Check  string // which check diverged, e.g. "backend:device", "printer", "oracle"
	Input  []byte // the input stream that exposed it (nil for input-independent checks)
	Detail string
}

func (f *Failure) String() string {
	if f.Input == nil {
		return fmt.Sprintf("[%s] %s", f.Check, f.Detail)
	}
	return fmt.Sprintf("[%s] input=%q: %s", f.Check, f.Input, f.Detail)
}

// Outcome aggregates one Case's checks.
type Outcome struct {
	Checks   int // individual comparisons performed
	Skips    map[string]int
	Failures []*Failure
	// Evictions and Demotions count what the long stream's tiny and
	// demoting lazy-DFA caches did, so a campaign can show it reached both.
	Evictions, Demotions int
}

func (o *Outcome) skip(reason string) {
	if o.Skips == nil {
		o.Skips = map[string]int{}
	}
	o.Skips[reason]++
}

func (o *Outcome) fail(check string, input []byte, format string, args ...interface{}) {
	o.Failures = append(o.Failures, &Failure{
		Check:  check,
		Input:  input,
		Detail: fmt.Sprintf(format, args...),
	})
}

// resourceLimit reports whether an interpreter error is a legitimate
// resource-budget abort rather than a semantic disagreement.
func resourceLimit(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "thread limit exceeded") ||
		strings.Contains(msg, "step limit exceeded") ||
		strings.Contains(msg, "counter settlement did not converge")
}

// Check runs every conformance check for one case. It returns an error
// only when the case itself is broken (source does not load or compile
// with the given arguments); divergences are collected in the Outcome.
func Check(c *Case) (*Outcome, error) {
	out := &Outcome{Skips: map[string]int{}}

	// The semantic oracle and the raw compiled network.
	prog, err := core.Load(c.Source)
	if err != nil {
		return nil, fmt.Errorf("conformance: case does not load: %w", err)
	}
	res, err := prog.Compile(c.Args, nil)
	if err != nil {
		return nil, fmt.Errorf("conformance: case does not compile: %w", err)
	}

	// The public pipeline's view of the same program.
	rprog, err := rapid.Parse(c.Source)
	if err != nil {
		return nil, fmt.Errorf("conformance: public parse failed: %w", err)
	}
	design, err := rprog.Compile(c.Args...)
	if err != nil {
		return nil, fmt.Errorf("conformance: public compile failed: %w", err)
	}

	// Construct each backend once per case.
	backends := make(map[rapid.BackendKind]rapid.Matcher)
	for _, kind := range rapid.BackendKinds() {
		m, err := design.Backend(kind)
		if err != nil {
			return nil, fmt.Errorf("conformance: backend %s construction failed: %w", kind, err)
		}
		backends[kind] = m
	}
	// One worker takes the whole batch in groups of Lanes, whatever
	// GOMAXPROCS is; padding with repeats makes every group full.
	engine, err := design.NewEngine(rapid.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("conformance: engine construction failed: %w", err)
	}
	padded := slices.Clip(c.Inputs)
	for len(padded)%lazydfa.Lanes != 0 {
		padded = append(padded, c.Inputs[len(padded)%len(c.Inputs)])
	}
	batch, err := engine.RunBatch(context.Background(), padded)
	if err != nil {
		return nil, fmt.Errorf("conformance: engine batch run failed: %w", err)
	}

	// Round-tripped designs (input-independent construction, compared
	// input-by-input below).
	printed := printer.Print(prog.AST)
	printedDesign, perr := roundTripPrinter(printed, c.Args)
	if perr != nil {
		out.fail("printer", nil, "parse→print→parse→compile failed: %v\n--- printed ---\n%s", perr, printed)
	}
	anmlDesign, aerr := roundTripANML(design)
	if aerr != nil {
		out.fail("anml", nil, "marshal→unmarshal failed: %v", aerr)
	}

	sim, err := automata.NewFastSimulator(res.Network)
	if err != nil {
		return nil, fmt.Errorf("conformance: fast simulator construction failed: %w", err)
	}

	for idx, input := range c.Inputs {
		ref, err := backends[rapid.BackendReference].Match(context.Background(), input)
		if err != nil {
			return nil, fmt.Errorf("conformance: reference run failed: %w", err)
		}

		// 1. Interpreter oracle vs reference simulation (offsets: the
		// oracle has no report codes).
		if reps, err := prog.Interpret(c.Args, input, nil); err != nil {
			if resourceLimit(err) {
				out.skip("interp-resource-limit")
			} else {
				out.fail("oracle", input, "interpreter error: %v", err)
			}
		} else {
			out.Checks++
			want := interp.Offsets(reps)
			got := rapid.Offsets(ref)
			if !equalInts(want, got) {
				out.fail("oracle", input, "interpreter offsets %v, compiled reference %v", want, got)
			}
		}

		// 2. Every backend (and the engine batch path) vs reference.
		for _, kind := range rapid.BackendKinds() {
			if kind == rapid.BackendReference {
				continue
			}
			got, err := backends[kind].Match(context.Background(), input)
			if err != nil {
				out.fail("backend:"+string(kind), input, "run error: %v", err)
				continue
			}
			out.Checks++
			if d := diffReports(ref, got); d != "" {
				out.fail("backend:"+string(kind), input, "%s", d)
			}
		}
		out.Checks++
		if d := diffReports(ref, batch[idx]); d != "" {
			out.fail("backend:lazy-dfa-batch", input, "%s", d)
		}

		// 3. Printer round-trip.
		if printedDesign != nil {
			got, err := printedDesign.RunBytes(input)
			if err != nil {
				out.fail("printer", input, "round-tripped design run error: %v", err)
			} else {
				out.Checks++
				if d := diffReports(ref, got); d != "" {
					out.fail("printer", input, "%s\n--- printed ---\n%s", d, printed)
				}
			}
		}

		// 4. ANML round-trip.
		if anmlDesign != nil {
			got, err := anmlDesign.RunBytes(input)
			if err != nil {
				out.fail("anml", input, "round-tripped design run error: %v", err)
			} else {
				out.Checks++
				if d := diffReports(ref, got); d != "" {
					out.fail("anml", input, "%s", d)
				}
			}
		}

		// 5. Snapshot/restore mid-stream vs uninterrupted run.
		if len(input) >= 2 {
			out.Checks++
			if d := snapshotCheck(sim, input); d != "" {
				out.fail("snapshot", input, "%s", d)
			}
		}
	}

	// 6. One long stream through the engine's span and segment walks. The
	// stream derives from every input, so a failure carries none of its
	// own.
	long := longStream(c.Inputs)
	ref, err := backends[rapid.BackendReference].Match(context.Background(), long)
	if err != nil {
		return nil, fmt.Errorf("conformance: reference run of the long stream failed: %w", err)
	}
	// An engine of two workers, so the stream splits wherever a helper and
	// a second core are idle, whatever GOMAXPROCS is beyond two.
	spanEngine, err := design.NewEngine(rapid.WithWorkers(2))
	if err != nil {
		return nil, fmt.Errorf("conformance: engine construction failed: %w", err)
	}
	got, err := spanEngine.Run(context.Background(), long)
	if err != nil {
		out.fail("backend:lazy-dfa-segments", nil, "run error: %v", err)
	} else {
		out.Checks++
		if d := diffReports(ref, got); d != "" {
			out.fail("backend:lazy-dfa-segments", nil, "the inputs framed and repeated to %d bytes: %s", len(long), d)
		}
	}
	// The same stream through lazy DFAs built directly: a fixed cache of
	// 5–9 states, taken from the case, evicts on nearly every new state,
	// and a 1-byte cap (its 16-state floor) demotes where the working set
	// keeps thrashing.
	for _, opts := range []*lazydfa.Options{{MaxCachedStates: 5 + len(c.Source)%5}, {MaxCacheBytes: 1}} {
		m, err := lazydfa.New(res.Network, opts)
		if err != nil {
			return nil, fmt.Errorf("conformance: lazy DFA construction failed: %w", err)
		}
		got := m.Run(long)
		out.Checks++
		out.Evictions += m.Evictions()
		out.Demotions += m.Demotions()
		if d := diffReports(ref, got); d != "" {
			out.fail("lazy-dfa-cache", nil, "the long stream on a cache of %+v: %s", *opts, d)
		}
	}
	return out, nil
}

// longStreamBytes is three of the engine's 16 KiB spans, past its split
// threshold of two, so Engine.Run hands spans to an idle helper and walks
// each span as four speculative segments.
const longStreamBytes = 48 << 10

// longStream frames inputs as records and repeats them to at least
// longStreamBytes.
func longStream(inputs [][]byte) []byte {
	framed := rapid.FrameRecords(inputs...)
	long := make([]byte, 0, longStreamBytes+len(framed))
	for len(long) < longStreamBytes {
		long = append(long, framed...)
	}
	return long
}

func roundTripPrinter(printed string, args []value.Value) (*rapid.Design, error) {
	rp, err := rapid.Parse(printed)
	if err != nil {
		return nil, err
	}
	return rp.Compile(args...)
}

func roundTripANML(d *rapid.Design) (*rapid.Design, error) {
	data, err := d.ANML()
	if err != nil {
		return nil, err
	}
	return rapid.LoadANML(data)
}

// snapshotCheck runs input three ways on clones of sim: uninterrupted
// (C), stepwise with a mid-stream snapshot (A), and rewound to that
// snapshot and re-run (B). Any difference in the (offset, code) report
// sets is a divergence.
func snapshotCheck(sim *automata.FastSimulator, input []byte) string {
	mid := len(input) / 2

	c := sim.Clone()
	reportsC := c.Run(input)

	s := sim.Clone()
	s.Reset()
	for _, b := range input[:mid] {
		s.Step(b)
	}
	snap := s.Snapshot()
	for _, b := range input[mid:] {
		s.Step(b)
	}
	reportsA := slices.Clone(s.Reports())

	s.Restore(snap)
	for _, b := range input[mid:] {
		s.Step(b)
	}
	reportsB := s.Reports()

	if d := diffReports(reportsC, reportsA); d != "" {
		return "interrupted run (snapshot at " + fmt.Sprint(mid) + ") diverged: " + d
	}
	if d := diffReports(reportsC, reportsB); d != "" {
		return "restored run (snapshot at " + fmt.Sprint(mid) + ") diverged: " + d
	}
	return ""
}

// ----------------------------------------------------------- comparison

// diffReports compares distinct (offset, code) sets and describes the
// symmetric difference, or returns "". Equal runs are equal sets, so the
// canonical forms are built only when the runs differ.
func diffReports(want, got []rapid.Report) string {
	if slices.Equal(want, got) {
		return ""
	}
	want, got = automata.Canonical(slices.Clone(want)), automata.Canonical(slices.Clone(got))
	missing, extra := absent(want, got), absent(got, want)
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("report sets differ:")
	if len(missing) > 0 {
		sb.WriteString(" missing " + strings.Join(missing, ", "))
	}
	if len(extra) > 0 {
		sb.WriteString(" extra " + strings.Join(extra, ", "))
	}
	return sb.String()
}

// absent lists, in order, the reports of the canonical run a that the
// canonical run b lacks.
func absent(a, b []rapid.Report) (out []string) {
	for _, r := range a {
		if _, ok := slices.BinarySearchFunc(b, r, automata.CompareReports); !ok {
			out = append(out, fmt.Sprintf("(offset=%d code=%d)", r.Offset, r.Code))
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
