package rapid

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported funcs and methods that stay without a
// caller outside this package, each with the reason it stays.
var exportAllowlist = map[string]string{
	"Str":   "a Value constructor: internal/lang/value cannot be imported outside this module, so the constructors and ValuesFromJSON are the only way to build a Value",
	"Int":   "a Value constructor (see Str)",
	"Char":  "a Value constructor (see Str)",
	"Bool":  "a Value constructor (see Str)",
	"Ints":  "a Value constructor (see Str)",
	"Array": "a Value constructor (see Str)",

	"Design.Run":                "the context-first form of Design.RunBytes, which calls it; outside callers reach it through the reference backend's Match",
	"UnknownBackendError.Error": "implements error; fmt and errors call it",
}

// TestExportedNamesHaveCallers: every exported func and method of this
// package is called from non-test code outside it — a cmd/, an example,
// serve/, internal/, the benchmark module — or from the host driver that
// GenerateDriver emits; otherwise it is on exportAllowlist with its reason.
// Receivers are resolved by a per-package look at declarations and
// assignments, so Engine.Run and Design.Run count apart.
func TestExportedNamesHaveCallers(t *testing.T) {
	api := rootAPI(t)
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Dir(path) == "." || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var driver bytes.Buffer
	if err := driverTemplate.Execute(&driver, map[string]string{"Binary": "driver", "ANML": `""`}); err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "driver", driver.Bytes(), parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkgs["(generated driver)"] = []*ast.File{f}
	used := map[string]bool{}
	for _, files := range pkgs {
		api.markUses(files, used)
	}

	var missing []string
	for _, name := range api.names() {
		_, allowed := exportAllowlist[name]
		switch {
		case !used[name] && !allowed:
			missing = append(missing, name)
		case used[name] && allowed:
			t.Errorf("%s has a caller now; take it off exportAllowlist", name)
		}
	}
	for name := range exportAllowlist {
		if !api.has(name) {
			t.Errorf("exportAllowlist names %s, which this package does not export", name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("exported with no caller outside the package: %s", strings.Join(missing, ", "))
	}
}

// exportedAPI is this package's exported funcs and methods, each with the
// type from this package it returns first ("" for none), and its exported
// struct fields of such a type — what resolving a receiver needs.
type exportedAPI struct {
	funcs   map[string]string            // func → result type
	methods map[string]map[string]string // receiver type → method → result type
	fields  map[string]string            // exported struct field → its type
}

func rootAPI(t *testing.T) *exportedAPI {
	api := &exportedAPI{funcs: map[string]string{}, methods: map[string]map[string]string{}, fields: map[string]string{}}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	typeName := func(e ast.Expr) string {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		if id, ok := e.(*ast.Ident); ok && id.IsExported() {
			return id.Name
		}
		return ""
	}
	first := func(ft *ast.FuncType) string {
		if ft.Results == nil {
			return ""
		}
		return typeName(ft.Results.List[0].Type)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !decl.Name.IsExported():
				case decl.Recv == nil:
					api.funcs[decl.Name.Name] = first(decl.Type)
				default:
					if recv := typeName(decl.Recv.List[0].Type); recv != "" {
						if api.methods[recv] == nil {
							api.methods[recv] = map[string]string{}
						}
						api.methods[recv][decl.Name.Name] = first(decl.Type)
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if ft := typeName(field.Type); ft != "" && name.IsExported() {
								api.fields[name.Name] = ft
							}
						}
					}
				}
			}
		}
	}
	return api
}

// names lists the exported funcs and "Type.Method" names, sorted.
func (api *exportedAPI) names() []string {
	var out []string
	for name := range api.funcs {
		out = append(out, name)
	}
	for recv, methods := range api.methods {
		for name := range methods {
			out = append(out, recv+"."+name)
		}
	}
	sort.Strings(out)
	return out
}

func (api *exportedAPI) has(name string) bool {
	if recv, method, ok := strings.Cut(name, "."); ok {
		_, found := api.methods[recv][method]
		return found
	}
	_, found := api.funcs[name]
	return found
}

// markUses records in used every exported func that files, one package,
// reference and every method they select on a value whose type from this
// package it can resolve. A file that does not import this package uses
// none of them.
func (api *exportedAPI) markUses(files []*ast.File, used map[string]bool) {
	// vars maps an identifier to the types from this package it is
	// declared or assigned with anywhere in the package, seeded with this
	// package's own exported struct fields: scopes are flattened, and a
	// name bound to two types keeps both.
	vars, bindings := map[string]map[string]bool{}, 0
	bind := func(name string, types map[string]bool) {
		for typ := range types {
			if vars[name] == nil {
				vars[name] = map[string]bool{}
			}
			if !vars[name][typ] {
				vars[name][typ] = true
				bindings++
			}
		}
	}
	one := func(typ string) map[string]bool {
		if typ == "" {
			return nil
		}
		return map[string]bool{typ: true}
	}
	for field, typ := range api.fields {
		bind(field, one(typ))
	}
	pkg := "" // the name the file being inspected imports this package as
	isPkg := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == pkg
	}
	typeOf := func(e ast.Expr) string {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok && isPkg(sel.X) {
			return sel.Sel.Name
		}
		return ""
	}
	var typesOf func(e ast.Expr) map[string]bool
	typesOf = func(e ast.Expr) map[string]bool {
		switch e := e.(type) {
		case *ast.Ident:
			return vars[e.Name]
		case *ast.ParenExpr:
			return typesOf(e.X)
		case *ast.UnaryExpr:
			return typesOf(e.X)
		case *ast.StarExpr:
			return typesOf(e.X)
		case *ast.CompositeLit:
			return one(typeOf(e.Type))
		case *ast.SelectorExpr:
			if !isPkg(e.X) {
				return vars[e.Sel.Name]
			}
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			switch {
			case !ok:
			case isPkg(sel.X):
				return one(api.funcs[sel.Sel.Name])
			default:
				out := map[string]bool{}
				for typ := range typesOf(sel.X) {
					if rt := api.methods[typ][sel.Sel.Name]; rt != "" {
						out[rt] = true
					}
				}
				return out
			}
		}
		return nil
	}
	target := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	inspect := func(visit func(ast.Node) bool) {
		for _, f := range files {
			pkg = ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "repro" {
					pkg = "rapid"
					if imp.Name != nil {
						pkg = imp.Name.Name
					}
				}
			}
			if pkg != "" {
				ast.Inspect(f, visit)
			}
		}
	}
	// A binding can depend on one made later in the source (a field
	// declared below its use), so collect them until nothing changes.
	for last := -1; last != bindings; {
		last = bindings
		inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, name := range n.Names {
					bind(name.Name, one(typeOf(n.Type)))
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					switch {
					case n.Type != nil:
						bind(name.Name, one(typeOf(n.Type)))
					case len(n.Values) == len(n.Names):
						bind(name.Name, typesOf(n.Values[i]))
					case i == 0 && len(n.Values) == 1:
						bind(name.Name, typesOf(n.Values[0]))
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					switch {
					case len(n.Rhs) == len(n.Lhs):
						bind(target(lhs), typesOf(n.Rhs[i]))
					case i == 0 && len(n.Rhs) == 1:
						bind(target(lhs), typesOf(n.Rhs[0]))
					}
				}
			}
			return true
		})
	}
	inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isPkg(sel.X) {
			used[sel.Sel.Name] = true
			return true
		}
		for typ := range typesOf(sel.X) {
			if _, ok := api.methods[typ][sel.Sel.Name]; ok {
				used[typ+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
}
