// Package deadcode holds one test: every package-level function and
// method under internal/ must be reachable from code outside _test.go
// files. Nothing outside this module can import an internal package, so
// an internal function that no program calls has no user; its tests
// check behaviour nothing depends on.
//
// The scan parses and type-checks the module with the standard library
// alone (go/build, go/parser, go/types with the source importer for the
// standard packages), so it needs no download and starts no process:
//
//	go test ./internal/tools/deadcode
package deadcode

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is the main module's path. perfbench/ is its own module
// (repro/perfbench) whose go.mod replaces repro with ../, so every
// import that starts with this path names a directory of this tree.
const module = "repro"

// allowlist names the internal functions that may stay without a
// non-test caller, each with its reason. A key is the package path below
// internal/, then the function, or the receiver's type and the method.
// An entry that the scan no longer needs fails the test, so the list
// cannot outlive its reasons.
var allowlist = map[string]string{
	// The E-rows' shape predicates and two recursion checks, kept for the
	// reproduction ledger (ROADMAP: "An executable reproduction ledger").
	"experiments.E1Result.FitExponent":              ledger,
	"experiments.E2Result.SlopePerLogInvDelta":      ledger,
	"experiments.E3Result.MaxAbsError":              ledger,
	"experiments.E4Result.AllMajorised":             ledger,
	"experiments.E5Result.Violations":               ledger,
	"experiments.E6Result.AllSound":                 ledger,
	"experiments.E7Result.AllMajorised":             ledger,
	"experiments.E8Result.MinGrowthBelowFixedPoint": ledger,
	"experiments.E9Result.MeanRoundsFor":            ledger,
	"experiments.E11Result.MaxRelError":             ledger,
	"experiments.E14Result.RoundsIncreaseWithQ":     ledger,
	"experiments.E16Result.SlowdownOnTorus":         ledger,
	"experiments.E17Result.AllCompatible":           ledger,
	"experiments.E20Result.AllWithinIntervals":      ledger,
	"theory.IdealStepsToBelow":                      ledger,
	"theory.DeltaGrowthFactorHolds":                 ledger,

	"markov.Chain.RedWinProbability": "exact-chain oracle: markov's tests compare both engines against it",
	"markov.Chain.PointDistribution": "exact-chain oracle: markov's tests compare both engines against it",
	"metrics.Lint":                   "serve's /metrics exposition test checks the format with it",

	// Fixtures that tests in other packages build their cases from.
	"graph.FromEdges":             "builds exact small graphs in the dynamics, plurality and core tests",
	"opinion.FromColours":         "builds exact colourings in the dynamics tests",
	"opinion.Config.Equal":        "compares configurations in the dynamics tests",
	"opinion.Config.IsConsensus":  "checks absorbing states in the dynamics tests",
	"opinion.Config.BlueFraction": "reads the colouring in the dynamics noise tests",
	"bitset.Set.FlipAll":          "swaps the colours in the dynamics symmetry test",
	"table.Table.NumRows":         "counts rendered rows in the experiments tests",
}

const ledger = "the reproduction ledger turns it into a verdict"

func TestNoUncalledInternalFunctions(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root)
	paths, err := l.packagePaths()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}

	ifaces := l.interfaceMethods()
	var roots []*types.Func
	refs := map[*types.Func][]*types.Func{}
	checked := map[*types.Func]token.Pos{}
	for _, p := range l.pkgs {
		internal := strings.HasPrefix(p.types.Path(), module+"/internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// Variable initialisers run at start-up.
					roots = append(roots, funcsUsed(decl, p.info)...)
					continue
				}
				fn, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				refs[fn] = funcsUsed(fd, p.info)
				switch {
				case !internal, fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init"):
					roots = append(roots, fn)
				case fd.Recv != nil && ifaces.declares(fn):
					// Callable through an interface value: http.Flusher,
					// fmt.Stringer, dynamics.Dynamic and the like.
					roots = append(roots, fn)
				default:
					checked[fn] = fd.Pos()
				}
			}
		}
	}

	allowed := map[string]*types.Func{}
	for fn := range checked {
		if _, ok := allowlist[declName(fn)]; ok {
			allowed[declName(fn)] = fn
		}
	}
	for name := range allowlist {
		fn, ok := allowed[name]
		if !ok {
			t.Errorf("allowlist entry %s names no internal function the scan checks: delete the entry", name)
			continue
		}
		others := append([]*types.Func(nil), roots...)
		for _, other := range allowed {
			if other != fn {
				others = append(others, other)
			}
		}
		if reach(others, refs)[fn] {
			t.Errorf("allowlist entry %s has a caller outside _test.go files: delete the entry", name)
		}
	}
	for _, fn := range allowed {
		roots = append(roots, fn)
	}
	live := reach(roots, refs)
	var dead []string
	for fn, pos := range checked {
		if !live[fn] {
			rel, _ := filepath.Rel(root, l.fset.Position(pos).Filename)
			dead = append(dead, declName(fn)+" ("+rel+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files: delete it, move it into a _test.go file, or add it to the allowlist with a reason", d)
	}
	t.Logf("%d packages, %d internal functions checked, %d allowlisted", len(l.pkgs), len(checked), len(allowed))
}

// reach returns the functions reachable from roots through refs.
func reach(roots []*types.Func, refs map[*types.Func][]*types.Func) map[*types.Func]bool {
	live := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !live[fn] {
			live[fn] = true
			stack = append(stack, refs[fn]...)
		}
	}
	return live
}

// funcsUsed returns the declared functions and methods node refers to.
func funcsUsed(node ast.Node, info *types.Info) []*types.Func {
	var fns []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				fns = append(fns, fn.Origin())
			}
		}
		return true
	})
	return fns
}

// declName is fn's allowlist key: "graph.FromEdges", "opinion.Config.Equal".
func declName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(fn.Pkg().Path(), module+"/internal/") + "." + name
}

// methodSet maps a method name to the signatures interfaces declare it with.
type methodSet map[string][]*types.Signature

func (s methodSet) add(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		s[m.Name()] = append(s[m.Name()], m.Type().(*types.Signature))
	}
}

// declares reports whether some interface has a method with fn's name
// and signature (receivers aside).
func (s methodSet) declares(fn *types.Func) bool {
	for _, sig := range s[fn.Name()] {
		if types.Identical(sig, fn.Type()) {
			return true
		}
	}
	return false
}

// interfaceMethods collects the methods of every interface the loaded
// packages write, of every named interface in the standard packages they
// import, directly or not, and of error.
func (l *loader) interfaceMethods() methodSet {
	s := methodSet{}
	s.add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var std func(*types.Package)
	std = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] || inModule(imp.Path()) {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					s.add(tn.Type())
				}
			}
			std(imp)
		}
	}
	for _, p := range l.pkgs {
		std(p.types)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					s.add(p.info.TypeOf(it))
				}
				return true
			})
		}
	}
	return s
}

func inModule(path string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// loader type-checks the module's packages from their non-test files and
// serves itself as their importer; standard packages come from the
// source importer.
type loader struct {
	root string
	fset *token.FileSet
	ctxt build.Context
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func newLoader(root string) *loader {
	// The source importer reads build.Default. With cgo off it checks
	// net and os/user from their pure-Go files instead of running the
	// cgo tool; no method set the scan reads depends on the difference.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		ctxt: build.Default,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
}

// packagePaths lists the import path of every directory holding
// non-test Go files, perfbench/ included.
func (l *loader) packagePaths() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(path, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		paths = append(paths, strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
		return nil
	})
	return paths, err
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !inModule(path) {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, module)))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
