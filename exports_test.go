package sparselr

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the declarations under internal/ that the dead-code
// gate would flag but that stay on purpose, each with its reason. Keys are
// "pkg.Name" for a package-level func, const, var or type,
// "pkg.Type.Member" for a method or field, and "pkg.Type.*" for every
// method and field of a type.
var exportAllowlist = map[string]string{
	// Test oracles: the reference a test compares production code with.
	"core.Approximation.Reconstruct": "dense Â from the factor table; the TrueError, export and one-rank tests compare against it",
	"sparse.SpGEMMFlops":             "schur_test checks the Schur workspace's charged flops against the SpGEMM count",
	"mat.Dense.Equal":                "the element-wise comparison of some sixty assertions in the tests of ten packages",
	"mat.Dense.FrobNorm":             "the overflow-safe norm of the residual checks in the tests of ten packages",
	"mat.Dense.Sub":                  "forms the residuals and QᵀQ − I of the tests of twelve packages",
	"mat.Dense.InfNorm":              "‖QᵀQ − I‖∞, the orthonormality check of the mat, randqb, randubv and arrf tests",
	"sparse.CSR.Equal":               "the factor and round-trip comparisons of the sparse, gen, serve and CLI tests",
	"sparse.CSR.At":                  "entry probes of the sparse, ordering, cur and lucrtp tests",
	"randqb.Factor":                  "the one-rank entry the seed-drift goldens, root benchmarks and cur/rsvd/randubv tests call; core runs the same FactorDist body",
	"randubv.Factor":                 "the one-rank entry the seed-drift golden and root benchmarks call; core runs the same FactorDist body",

	// Knobs a seed-drift golden pins (seeddrift_test.go) and README documents.
	"lucrtp.Options.StableL":        "the §II-B3 alternative L₂₁; golden stable_l and the StableL ablation benchmarks",
	"lucrtp.Options.CaptureDropped": "the explicit T of eq (10); golden ilut_fixed_capture and TestEq10ExactWithCapturedT",
	"lucrtp.Result.Dropped":         "the T that CaptureDropped fills; golden ilut_fixed_capture",
	"lucrtp.Options.Mu":             "FixedThreshold's μ; golden ilut_fixed_capture and the threshold-control test",
	"lucrtp.Options.Phi":            "the threshold control φ; golden ilut_control",
	"lucrtp.Options.DiscardTol":     "the column-discarding enhancement of ref [2]; golden discard_reorder_every",
	"lucrtp.ReorderFirst":           "the zero ReorderMode every program gets by leaving Reorder unset; the reorder tests name it",
	"dist.Stats.KOrder":             "the seed-drift hash walks each rank's kernels in this order",

	// Test seams: a test swaps in a fake.
	"serve.Config.Solve":         "the serve and fleet tests install gated and counting stub solvers",
	"fleet.GatewayConfig.Client": "the gateway hardening tests install a flaky transport",
	"fleet.NewChaosPlan":         "the real-process chaos soak (cmd/lowrank-gateway soak_test.go, ./verify.sh -soak) builds its kill schedule with it",
	"fleet.ChaosPlan.Run":        "the chaos soak replays its schedule against real shards with it",
	"fleet.ChaosConfig.*":        "the chaos soak and TestChaosPlanFakeClockWalk configure the kill schedule",
	"fleet.ChaosPlan.Seed":       "the chaos tests report the seed that reproduces a failing schedule",
	"prom.Value.Load":            "the serve, fleet and daemon tests read counters through it",

	// Rows the reproduction tests check; the CLIs print a subset.
	"experiments.ChaosRow.*":        "rows the reproduction tests check",
	"experiments.Fig1LeftCase.*":    "rows the reproduction tests check",
	"experiments.Fig1LeftSummary.*": "rows the reproduction tests check",
	"experiments.Fig1RightSeries.*": "rows the reproduction tests check",
	"experiments.KernelBreakdown.*": "rows the reproduction tests check",
	"experiments.QualityPoint.*":    "rows the reproduction tests check",
	"experiments.QualitySweep.*":    "rows the reproduction tests check",
	"experiments.ScalingSeries.*":   "rows the reproduction tests check",
	"experiments.Table1Row.*":       "rows the reproduction tests check",
	"experiments.Table2Row.*":       "rows the reproduction tests check",

	// Kept runtime surface.
	"dist.Comm.Reduce": "one of the four collectives the paper's MPI solvers use (Bcast, Reduce, Gather, Allgather); the fault, trace and deadlock tests drive the reduce tree through it",
}

// TestExportsHaveProductionCallers type-checks the non-test Go files of
// internal/, cmd/, examples/ and the bench/ module (the programs) and
// fails on any declaration under internal/ that breaks one of three
// rules, counting uses by object, not by name:
//
//	R1. every exported func, method, const, var and type has a program
//	    use outside its own declaration;
//	R2. every exported struct field has a program read;
//	R3. every exported field of an options or config struct (a type
//	    named *Options or *Config) has a program write.
//
// Tests do not count, so a helper or knob only a test uses belongs in the
// test. A method also counts as used when it implements a method of an
// interface the programs use; a field with a json tag is wire format and
// counts as read and written.
func TestExportsHaveProductionCallers(t *testing.T) {
	findings, declared, err := deadCode(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.allowed {
			t.Errorf("%s: delete it, move it into a test, or add it to exportAllowlist with a reason", f)
		}
	}
	// A stale allowlist entry hides nothing, but it misleads the reader.
	for key, reason := range exportAllowlist {
		switch {
		case reason == "":
			t.Errorf("exportAllowlist entry %s has no reason", key)
		case !declared[key]:
			t.Errorf("exportAllowlist names %s, which is no longer declared", key)
		case !allowlistUsed(findings, key):
			t.Errorf("exportAllowlist names %s, which no rule flags any more", key)
		}
	}
}

// TestExportsGateCatchesPlantedExport plants dead declarations in a
// scratch tree, including the cases a name-matching gate misses, and
// checks the gate reports exactly those: a method that shares its name
// with a called method of another type, an options field only a test
// sets and a result field nothing reads. A method reached only through
// an interface and the four write forms (positional literal, indexed
// store, ++/op-assign, address-of) must not be flagged.
func TestExportsGateCatchesPlantedExport(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example\n\ngo 1.22\n")
	write("internal/widget/widget.go", `package widget

// Used has a caller in cmd/.
func Used() int { return Called() }

// Called has a caller in Used.
func Called() int { return helper() }

func helper() int { return 0 }

// Orphan calls itself and a test calls it; neither counts.
func Orphan() int { return Orphan() }

// A and B both declare Size; only A's is called.
type A struct{}
type B struct{}

func (A) Size() int { return 1 }
func (B) Size() int { return 2 }

// Shape's Area is called through the interface only.
type Shape interface{ Area() int }
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func Total(s Shape) int { return s.Area() }

// Options.Knob is set only by a test; the other fields by the program.
type Options struct {
	Tol   float64
	Knob  bool
	Steps []int
	Count int
	Limit int
}

// Result.Unread is written and never read.
type Result struct {
	Rank   int
	Unread int
}

func Run(o Options) Result {
	r := Result{Rank: o.Count + o.Limit + len(o.Steps)}
	r.Unread = 1
	if o.Knob || o.Tol > 0 {
		r.Rank++
	}
	return r
}

// Pair is built positionally.
type Pair struct{ X, Y int }

func Sum(p Pair) int { return p.X + p.Y }

// E is an error; Error is reached through the error interface.
type E struct{}

func (E) Error() string { return "e" }

func Fail() error { return E{} }
`)
	write("internal/widget/widget_test.go", `package widget

import "testing"

func TestOrphan(t *testing.T) {
	_ = Orphan()
	_ = B{}.Size()
	_ = Run(Options{Knob: true}).Unread
}
`)
	write("cmd/tool/main.go", `package main

import "example/internal/widget"

func parse(p *int) { *p = 3 }

func main() {
	o := widget.Options{Steps: make([]int, 2)}
	o.Tol = 0.5
	o.Steps[0] = 1
	o.Count++
	o.Count += 2
	parse(&o.Limit)
	_ = widget.Run(o).Rank
	_ = widget.Used() + widget.A{}.Size() + widget.Total(widget.Square{Side: 2})
	_ = widget.Sum(widget.Pair{1, 2})
	_, _ = widget.Fail(), widget.B{}
}
`)
	findings, _, err := deadCode(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	want := []string{
		"widget.B.Size: R1 no program use",
		"widget.Options.Knob: R3 no program write",
		"widget.Orphan: R1 no program use",
		"widget.Result.Unread: R2 no program read",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// finding is one declaration that breaks a rule.
type finding struct {
	key, rule string
	allowed   bool // exportAllowlist names key or its type's "pkg.Type.*"
}

func (f finding) String() string { return f.key + ": " + f.rule }

// allowlistUsed reports whether key suppresses some finding.
func allowlistUsed(findings []finding, key string) bool {
	for _, f := range findings {
		if f.key == key || strings.HasSuffix(key, ".*") && strings.HasPrefix(f.key, strings.TrimSuffix(key, "*")) {
			return true
		}
	}
	return false
}

// progPkg is one type-checked program package.
type progPkg struct {
	pkg      *types.Package
	files    []*ast.File
	info     *types.Info
	internal bool // under root/internal: its declarations are checked
}

// loader type-checks the program packages from source, and the standard
// library they import with function bodies skipped. It needs no network
// and no compiled export data.
type loader struct {
	fset   *token.FileSet
	ctx    build.Context
	root   string
	module string // the module path of root/go.mod
	pkgs   map[string]*types.Package
	prog   map[string]*progPkg // by directory
}

// Import and ImportFrom implement types.ImporterFrom: a path of the
// module resolves to its directory under root, anything else through
// go/build (GOROOT, with vendoring).
func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, l.root, 0) }

func (l *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.program(filepath.Join(l.root, strings.TrimPrefix(path, l.module)))
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	bp, err := l.ctx.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	if p := l.pkgs[bp.ImportPath]; p != nil {
		return p, nil
	}
	files, err := l.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true, FakeImportC: true, Error: func(error) {}}
	p, _ := conf.Check(bp.ImportPath, l.fset, files, nil)
	l.pkgs[bp.ImportPath] = p
	return p, nil
}

// program type-checks the non-test files of the package in dir once,
// recording uses, definitions, selections and expression types.
func (l *loader) program(dir string) (*progPkg, error) {
	if p := l.prog[dir]; p != nil {
		return p, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	rel, _ := filepath.Rel(l.root, dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(l.module+"/"+filepath.ToSlash(rel), l.fset, files, info)
	if err != nil {
		return nil, err
	}
	internal := strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/")
	p := &progPkg{pkg: pkg, files: files, info: info, internal: internal}
	l.prog[dir] = p
	return p, nil
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// deadCode type-checks the programs under root and returns, sorted by
// key, every declaration under root/internal that breaks R1-R3, marking
// those exportAllowlist names. declared holds the key of every checked
// declaration and "pkg.Type.*" for every named type.
func deadCode(root string) (findings []finding, declared map[string]bool, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	l := &loader{fset: token.NewFileSet(), ctx: build.Default, root: root, pkgs: map[string]*types.Package{}, prog: map[string]*progPkg{}}
	l.ctx.CgoEnabled = false
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			l.module = strings.TrimSpace(m)
		}
	}
	var progs []*progPkg
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		dirs, err := goDirs(filepath.Join(root, top))
		if err != nil {
			return nil, nil, err
		}
		for _, dir := range dirs {
			p, err := l.program(dir)
			if err != nil {
				return nil, nil, err
			}
			progs = append(progs, p)
		}
	}

	u := newUsage()
	for _, p := range progs {
		u.scan(p)
	}
	declared = map[string]bool{}
	flag := func(key, rule string) {
		typ := key[:strings.LastIndexByte(key, '.')+1] + "*"
		findings = append(findings, finding{key: key, rule: rule, allowed: exportAllowlist[key] != "" || exportAllowlist[typ] != ""})
	}
	for _, p := range progs {
		if !p.internal {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.pkg.Name() + "." + name
			declared[key] = true
			if obj.Exported() && !u.used[obj] {
				flag(key, "R1 no program use")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			declared[key+".*"] = true
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				declared[key+"."+m.Name()] = true
				if m.Exported() && !u.used[m] && !u.implementsUsed(named, m) {
					flag(key+"."+m.Name(), "R1 no program use")
				}
			}
			switch under := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < under.NumExplicitMethods(); i++ {
					m := under.ExplicitMethod(i)
					declared[key+"."+m.Name()] = true
					if m.Exported() && !u.used[m] {
						flag(key+"."+m.Name(), "R1 no program use")
					}
				}
			case *types.Struct:
				options := strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
				for i := 0; i < under.NumFields(); i++ {
					f := under.Field(i)
					fkey := key + "." + f.Name()
					declared[fkey] = true
					if !f.Exported() {
						continue
					}
					wire := jsonField(under, i)
					if !wire && !u.read[f] {
						flag(fkey, "R2 no program read")
					}
					if options && !wire && !u.written[f] {
						flag(fkey, "R3 no program write")
					}
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].String() < findings[j].String() })
	return findings, declared, nil
}

// jsonField reports whether field i of st is JSON wire format: it has a
// json tag, or it is embedded and encoding/json inlines its tagged fields.
func jsonField(st *types.Struct, i int) bool {
	if reflect.StructTag(st.Tag(i)).Get("json") != "" {
		return true
	}
	if f := st.Field(i); f.Embedded() {
		t := f.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if inner, ok := t.Underlying().(*types.Struct); ok {
			for j := 0; j < inner.NumFields(); j++ {
				if jsonField(inner, j) {
					return true
				}
			}
		}
	}
	return false
}

// usage records, by object, what the programs use, read and write.
type usage struct {
	used    map[types.Object]bool // used outside the object's own declaration
	read    map[*types.Var]bool   // struct fields read
	written map[*types.Var]bool   // struct fields written
	ifaces  []*types.Interface    // interfaces the programs use
	seen    map[*types.Interface]bool
	decl    map[types.Object][2]token.Pos // the span of each declaration
}

func newUsage() *usage {
	u := &usage{used: map[types.Object]bool{}, read: map[*types.Var]bool{}, written: map[*types.Var]bool{},
		seen: map[*types.Interface]bool{}, decl: map[types.Object][2]token.Pos{}}
	// The standard library calls these by type assertion on values the
	// programs hand it, so no program code names them.
	errType := types.Universe.Lookup("error").Type()
	u.addIface(errType)
	for _, m := range []struct {
		name string
		res  types.Type
	}{{"String", types.Typ[types.String]}, {"Unwrap", errType}} { // fmt.Stringer, errors.Unwrap
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", m.res)), false)
		u.addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	return u
}

// origin maps an instantiated method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsUsed reports whether m, a method of named, implements a
// method of an interface the programs use.
func (u *usage) implementsUsed(named *types.Named, m *types.Func) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range u.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// addIface records every non-generic interface with methods that t is,
// or reaches through a signature's parameters and results, a pointer or
// a slice.
func (u *usage) addIface(t types.Type) {
	switch t := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				u.addIface(tup.At(i).Type())
			}
		}
		return
	case *types.Pointer:
		u.addIface(t.Elem())
		return
	case *types.Slice:
		u.addIface(t.Elem())
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !u.seen[it] {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		u.seen[it] = true
		u.ifaces = append(u.ifaces, it)
	}
}

// scan records p's uses, field reads and field writes.
func (u *usage) scan(p *progPkg) {
	recvs := map[*ast.Ident]bool{} // a receiver names its own type; that is no use of it
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				u.decl[p.info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
				if d.Recv != nil {
					recvs[recvTypeIdent(d)] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						u.decl[p.info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							u.decl[p.info.Defs[n]] = [2]token.Pos{s.Pos(), s.End()}
						}
					}
				}
			}
		}
	}
	delete(u.decl, nil)

	writeOnly := map[*ast.Ident]bool{} // field selectors that store, not load
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						u.store(p, lhs, writeOnly)
					}
				}
			case *ast.IncDecStmt:
				u.store(p, n.X, writeOnly)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							u.store(p, e, writeOnly)
						}
					}
				}
			case *ast.UnaryExpr:
				// &x.f hands out the field to be filled (a flag or a
				// parser) and read later: it is both.
				if n.Op == token.AND {
					if v := fieldOf(p, n.X); v != nil {
						u.written[v] = true
					}
				}
			case *ast.CompositeLit:
				st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writeOnly[id] = true
							if v, ok := p.info.Uses[id].(*types.Var); ok {
								u.written[v.Origin()] = true
							}
						}
					} else if i < st.NumFields() {
						u.written[st.Field(i).Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				// Reaching a promoted member reads each embedded field
				// on the way.
				if sel := p.info.Selections[n]; sel != nil {
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						u.read[st.Field(i).Origin()] = true
						t = st.Field(i).Type()
					}
				}
			}
			return true
		})
	}

	for id, obj := range p.info.Uses {
		obj = origin(obj)
		if recvs[id] {
			continue
		}
		if span, ok := u.decl[obj]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		u.used[obj] = true
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writeOnly[id] {
			u.read[v] = true
		}
		u.addIface(obj.Type())
	}
}

// store marks the field that the assignment target e writes: x.f,
// x.f[i] and, through a value (not pointer) path, x.f.g.
func (u *usage) store(p *progPkg, e ast.Expr, writeOnly map[*ast.Ident]bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		u.store(p, e.X, writeOnly)
	case *ast.IndexExpr:
		u.store(p, e.X, writeOnly)
	case *ast.SelectorExpr:
		sel := p.info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		writeOnly[e.Sel] = true
		u.written[sel.Obj().(*types.Var).Origin()] = true
		if !sel.Indirect() {
			u.store(p, e.X, writeOnly)
		}
	}
}

// fieldOf is the field that e selects, or nil.
func fieldOf(p *progPkg, e ast.Expr) *types.Var {
	if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if sel := p.info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var).Origin()
		}
	}
	return nil
}

// recvTypeIdent is the type name in fd's receiver.
func recvTypeIdent(fd *ast.FuncDecl) *ast.Ident {
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch generic := typ.(type) {
	case *ast.IndexExpr:
		typ = generic.X
	case *ast.IndexListExpr:
		typ = generic.X
	}
	id, _ := typ.(*ast.Ident)
	return id
}

// goDirs lists the directories under dir (a missing dir has none) that
// hold a non-test Go file, skipping testdata and dot directories.
func goDirs(dir string) ([]string, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil
	}
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != dir) {
				return filepath.SkipDir
			}
			return nil
		}
		if parent := filepath.Dir(path); strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !seen[parent] {
			seen[parent] = true
			dirs = append(dirs, parent)
		}
		return nil
	})
	return dirs, err
}
