// Package core orchestrates the RAPID compilation pipeline — the paper's
// primary contribution: parse → type check (with staged-computation
// annotation) → lower to a homogeneous automaton, which package place
// places and routes or tessellates for the Automata Processor.
//
// It also implements the Section 6 heuristic that selects what to
// tessellate: a top-level some statement iterating over a network parameter
// marks the program as a repetition of per-element automata, so the
// compiler compiles a single-element instance and hands it to
// place.Tessellate, which fills one block with copies and tiles it across
// the board.
package core

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/lang/ast"
	"repro/internal/lang/interp"
	"repro/internal/lang/parser"
	"repro/internal/lang/sema"
	"repro/internal/lang/value"
	"repro/internal/place"
)

// Program is a parsed and checked RAPID program.
type Program struct {
	Src  string
	AST  *ast.Program
	Info *sema.Info
}

// Load parses and checks RAPID source.
func Load(src string) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return &Program{Src: src, AST: prog, Info: info}, nil
}

// Params returns the network parameter names in order.
func (p *Program) Params() []string {
	out := make([]string, len(p.AST.Network.Params))
	for i, param := range p.AST.Network.Params {
		out[i] = param.Name
	}
	return out
}

// Compile lowers the program applied to the given network arguments.
func (p *Program) Compile(args []value.Value, opts *codegen.Options) (*codegen.Result, error) {
	return codegen.Compile(p.Info, args, opts)
}

// Interpret runs the reference interpreter over input.
func (p *Program) Interpret(args []value.Value, input []byte, opts *interp.Options) ([]interp.Report, error) {
	return interp.Run(p.Info, args, input, opts)
}

// TileSpec identifies the repetition structure found by the tessellation
// heuristic: the network parameter whose elements generate the repeated
// automaton, and the number of instances in the actual argument.
type TileSpec struct {
	// ParamIndex is the index of the tiled network parameter.
	ParamIndex int
	// ParamName is its name.
	ParamName string
	// Count is the number of instances (the argument array's length).
	Count int
}

// DetectTileable applies the Section 6 heuristic: a some statement at the
// top level of the network (possibly inside a top-level whenever, which the
// sliding-window idiom wraps around it) iterating directly over an
// array-typed network parameter marks the program as tileable.
func (p *Program) DetectTileable(args []value.Value) (*TileSpec, bool) {
	paramIndex := make(map[string]int)
	for i, param := range p.AST.Network.Params {
		if param.Type.Dims > 0 {
			paramIndex[param.Name] = i
		}
	}
	var found *TileSpec
	consider := func(s ast.Stmt) {
		some, ok := s.(*ast.SomeStmt)
		if !ok || found != nil {
			return
		}
		ident, ok := some.Seq.(*ast.Ident)
		if !ok {
			return
		}
		idx, ok := paramIndex[ident.Name]
		if !ok || idx >= len(args) {
			return
		}
		arr, ok := args[idx].(value.Array)
		if !ok || len(arr) == 0 {
			return
		}
		found = &TileSpec{ParamIndex: idx, ParamName: ident.Name, Count: len(arr)}
	}
	// Scan the network's top level, looking through the wrappers the
	// sliding-window idioms introduce: top-level blocks and whenever
	// bodies.
	var scan func(s ast.Stmt, depth int)
	scan = func(s ast.Stmt, depth int) {
		if depth > 2 {
			return
		}
		consider(s)
		switch s := s.(type) {
		case *ast.BlockStmt:
			for _, inner := range s.Stmts {
				scan(inner, depth+1)
			}
		case *ast.WheneverStmt:
			scan(s.Body, depth+1)
		}
	}
	for _, s := range p.AST.Network.Body.Stmts {
		scan(s, 0)
	}
	if found == nil {
		return nil, false
	}
	return found, true
}

// UnitArgs returns the argument vector with the tiled parameter reduced to
// its first element, producing the single-instance unit design.
func (spec *TileSpec) UnitArgs(args []value.Value) []value.Value {
	out := make([]value.Value, len(args))
	copy(out, args)
	arr := args[spec.ParamIndex].(value.Array)
	out[spec.ParamIndex] = arr[:1]
	return out
}

// Tessellate applies the auto-tuning tessellation optimization: it detects
// the tileable repetition, compiles the single-instance unit, and tiles its
// device network. It fails when the heuristic finds no repetition (e.g.,
// fixed-size designs like Brill).
func (p *Program) Tessellate(args []value.Value) (*place.Tessellation, error) {
	spec, ok := p.DetectTileable(args)
	if !ok {
		return nil, fmt.Errorf("core: no top-level some over a network parameter; the design is not tileable")
	}
	unit, err := p.Compile(spec.UnitArgs(args), nil)
	if err != nil {
		return nil, err
	}
	return place.Tessellate(place.DeviceNetwork(unit.Network), spec.Count)
}
