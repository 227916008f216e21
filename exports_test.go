package sparselr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under
// internal/ that no program calls by name but that stay on purpose,
// each with its reason. Keys are "pkg.Func", "pkg.Type.Method", or
// ".Method" for every method of that name.
var exportAllowlist = map[string]string{
	// Interface methods, called through the interface, not by name.
	".Error":     "error interface",
	".Unwrap":    "errors.Is/As unwrapping",
	".String":    "fmt.Stringer",
	".ServeHTTP": "http.Handler",

	// Test oracles: the reference a test compares production code with.
	"core.Approximation.Reconstruct": "dense Â from the factor table; the TrueError, export and one-rank tests compare against it",
	"sparse.SpGEMMFlops":             "schur_test checks the Schur workspace's charged flops against the SpGEMM count",

	// Cross-package test fixtures.
	"fleet.NewChaosPlan":  "the real-process chaos soak (cmd/lowrank-gateway soak_test.go, ./verify.sh -soak) builds its kill schedule with it",
	"fleet.ChaosPlan.Run": "the chaos soak replays its schedule against real shards with it",
	"prom.Value.Load":     "the serve, fleet and daemon tests read counters through it",

	// Kept runtime surface.
	"dist.Comm.Reduce": "one of the four collectives the paper's MPI solvers use (Bcast, Reduce, Gather, Allgather); the fault, trace and deadlock tests drive the reduce tree through it",
}

// TestExportsHaveProductionCallers fails when an exported function or
// method declared in a non-test file under internal/ has no production
// caller: its name must appear as an identifier in some non-test Go
// file of internal/, cmd/, examples/ or bench/ outside its own
// declaration, or it must be in exportAllowlist with a reason. The
// programs are the CLIs, the daemons, examples/ and bench/; tests do
// not count, so a helper only a test calls belongs in the test.
//
// Known gap: matching is by name, not by type, so a call to a
// same-named function or method anywhere in those trees counts as a
// caller. The gate catches an export whose name nothing else uses,
// which is the common way dead code comes back.
func TestExportsHaveProductionCallers(t *testing.T) {
	uncalled, declared, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		t.Errorf("%s is exported but no program calls it: delete it, move it into a test, or add it to exportAllowlist with a reason", name)
	}
	// A stale allowlist entry hides nothing, but it misleads the reader.
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("exportAllowlist names %s, which is no longer declared", key)
		}
	}
}

// TestExportsGateCatchesPlantedExport plants an exported function that
// nothing calls in a scratch tree and checks the gate reports it, and
// that a caller in a program clears it.
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
	write("internal/widget/widget.go", `package widget

// Used has a caller in cmd/.
func Used() int { return Called() }

// Called has a caller in Used.
func Called() int { return helper() }

func helper() int { return 0 }

// Orphan calls itself and a test calls it; neither counts.
func Orphan() int { return Orphan() }
`)
	write("internal/widget/widget_test.go", `package widget

import "testing"

func TestOrphan(t *testing.T) { _ = Orphan() }
`)
	write("cmd/tool/main.go", `package main

import "example/internal/widget"

func main() { _ = widget.Used() }
`)
	uncalled, _, err := uncalledExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"widget.Orphan"}; strings.Join(uncalled, ",") != strings.Join(want, ",") {
		t.Fatalf("uncalled = %v, want %v", uncalled, want)
	}
}

// uncalledExports returns, sorted, the exported declarations under
// root/internal whose name appears nowhere in the production trees
// outside its own declaration and that exportAllowlist does not name.
// declared holds every exported declaration's key, and ".Method" for
// each method name, in exportAllowlist's key forms.
func uncalledExports(root string) (uncalled []string, declared map[string]bool, err error) {
	type decl struct {
		name, method string // method is ".Method", or "" for a func
		file         string
		start, end   token.Pos
	}
	type use struct {
		file string
		pos  token.Pos
	}
	var decls []decl
	declared = map[string]bool{}
	used := map[string][]use{}
	for _, dir := range []string{"internal", "cmd", "examples", "bench"} {
		err := walkGo(filepath.Join(root, dir), func(path string, f *ast.File) {
			if dir == "internal" {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
						dc := decl{name: declName(f.Name.Name, fd), file: path, start: fd.Pos(), end: fd.End()}
						if fd.Recv != nil {
							dc.method = "." + fd.Name.Name
						}
						declared[dc.name], declared[dc.method] = true, true
						decls = append(decls, dc)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = append(used[id.Name], use{path, id.Pos()})
				}
				return true
			})
		})
		if err != nil {
			return nil, nil, err
		}
	}
	delete(declared, "")
	for _, d := range decls {
		if exportAllowlist[d.name] != "" || d.method != "" && exportAllowlist[d.method] != "" {
			continue
		}
		short := d.name[strings.LastIndexByte(d.name, '.')+1:]
		called := false
		for _, u := range used[short] {
			if u.file != d.file || u.pos < d.start || u.pos >= d.end {
				called = true
				break
			}
		}
		if !called {
			uncalled = append(uncalled, d.name)
		}
	}
	sort.Strings(uncalled)
	return uncalled, declared, nil
}

// walkGo parses every non-test Go file under dir (a missing dir is
// empty) and hands it to visit. Each file gets its own FileSet, so
// positions compare only within one file.
func walkGo(dir string, visit func(path string, f *ast.File)) error {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != dir) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
}

// declName is "pkg.Func" for a function and "pkg.Type.Method" for a
// method (pointer receivers and type parameters stripped).
func declName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
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
	if id, ok := typ.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}
