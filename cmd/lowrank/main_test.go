package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/lucrtp"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]gen.Scale{
		"small": gen.Small, "medium": gen.Medium, "large": gen.Large,
	} {
		got, err := gen.ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("gen.ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := gen.ParseScale("huge"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestLoadMatrixGenerated(t *testing.T) {
	a, name, err := loadMatrix("M3", "small")
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() == 0 || name == "" {
		t.Fatal("degenerate generated matrix")
	}
	if _, _, err := loadMatrix("M9", "small"); err == nil {
		t.Fatal("expected error for M9, neither a label nor a file")
	}
	if _, _, err := loadMatrix("M1", "bogus"); err == nil {
		t.Fatal("expected error for bad scale")
	}
}

// A file whose name looks like a generator label but is not one
// (M1..M6), such as M9, loads as a file too.
func TestLoadMatrixFromFile(t *testing.T) {
	t.Chdir(t.TempDir())
	orig := gen.Circuit(20, 3, 1)
	for _, path := range []string{"m.mtx", "M9"} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := orig.WriteMatrixMarket(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		a, name, err := loadMatrix(path, "small")
		if err != nil {
			t.Fatal(err)
		}
		if name != path || !a.Equal(orig, 0) {
			t.Fatalf("file %s loaded as %q, equal to the file: %v", path, name, a.Equal(orig, 0))
		}
	}
	if _, _, err := loadMatrix("missing.mtx", "small"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// cliFlags are the flags validateFlags sees.
type cliFlags struct {
	matrix, scale, method, sketch string
	opts                          core.Options
}

func (f cliFlags) validate() error {
	return validateFlags(f.matrix, f.scale, f.method, f.sketch, &f.opts)
}

func TestValidateFlags(t *testing.T) {
	ok := cliFlags{matrix: "M1", scale: "small", method: "LU_CRTP", sketch: "gaussian",
		opts: core.Options{BlockSize: 16, Tol: 1e-2, Power: 1, Procs: 1}}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	// -sketchnnz with the sparsesign sketch is the one place it is legal.
	sp := ok
	sp.sketch = "sparsesign"
	sp.opts.SketchNNZ = 4
	if err := sp.validate(); err != nil {
		t.Fatalf("sparsesign+sketchnnz rejected: %v", err)
	}
	mutate := func(f func(*cliFlags)) cliFlags { v := ok; f(&v); return v }
	bad := map[string]cliFlags{
		"unknown method":        mutate(func(v *cliFlags) { v.method = "nope" }),
		"unknown sketch":        mutate(func(v *cliFlags) { v.sketch = "nope" }),
		"unknown scale":         mutate(func(v *cliFlags) { v.scale = "huge" }),
		"zero block":            mutate(func(v *cliFlags) { v.opts.BlockSize = 0 }),
		"negative block":        mutate(func(v *cliFlags) { v.opts.BlockSize = -4 }),
		"negative tol":          mutate(func(v *cliFlags) { v.opts.Tol = -1e-3 }),
		"NaN tol":               mutate(func(v *cliFlags) { v.opts.Tol = math.NaN() }),
		"infinite tol":          mutate(func(v *cliFlags) { v.opts.Tol = math.Inf(1) }),
		"zero tol no maxrank":   mutate(func(v *cliFlags) { v.opts.Tol = 0 }),
		"negative maxrank":      mutate(func(v *cliFlags) { v.opts.MaxRank = -1 }),
		"power out of range":    mutate(func(v *cliFlags) { v.opts.Power = 4 }),
		"negative np":           mutate(func(v *cliFlags) { v.opts.Procs = -2 }),
		"tsvd distributed":      mutate(func(v *cliFlags) { v.method = "tsvd"; v.opts.Procs = 4 }),
		"cur distributed":       mutate(func(v *cliFlags) { v.method = "cur"; v.opts.Procs = 2 }),
		"sketchnnz w/ gaussian": mutate(func(v *cliFlags) { v.opts.SketchNNZ = 4 }),
		"negative sketchnnz":    mutate(func(v *cliFlags) { v.sketch = "sparsesign"; v.opts.SketchNNZ = -1 }),
	}
	for name, v := range bad {
		if err := v.validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, v)
		}
	}
	// Every method runs on a one-rank world, so -np 0 and 1 are legal
	// for all ten.
	for _, name := range strings.Split(core.MethodUsage(), " | ") {
		for _, np := range []int{0, 1} {
			if err := mutate(func(v *cliFlags) { v.method = name; v.opts.Procs = np }).validate(); err != nil {
				t.Fatalf("%s at -np %d rejected: %v", name, np, err)
			}
		}
	}
	// Zero tol with a rank cap is the legal fixed-rank mode.
	fr := mutate(func(v *cliFlags) { v.opts.Tol = 0; v.opts.MaxRank = 8 })
	if err := fr.validate(); err != nil {
		t.Fatalf("fixed-rank flags rejected: %v", err)
	}
	// A non-generator matrix path skips scale validation.
	file := mutate(func(v *cliFlags) { v.matrix = "data/x.mtx"; v.scale = "bogus" })
	if err := file.validate(); err != nil {
		t.Fatalf("file path with unused scale rejected: %v", err)
	}
}

func TestClassifyRunError(t *testing.T) {
	cases := []struct {
		err  error
		code int
		want string
	}{
		{fmt.Errorf("block: %w", lucrtp.ErrBreakdown), 2, "numerical breakdown"},
		{&dist.RankError{Rank: 3, VirtualTime: 0.5, Phase: "send", Err: dist.ErrInjectedCrash}, 3, "rank 3"},
		{&dist.RankError{Rank: 1, Phase: "spmm", Err: fmt.Errorf("x: %w", lucrtp.ErrBreakdown)}, 2, "numerical breakdown"},
		{&dist.DeadlockError{Waits: []dist.WaitFor{{Rank: 0, On: 1}}}, 3, "deadlocked"},
		{errors.New("plain failure"), 1, "plain failure"},
	}
	for _, c := range cases {
		msg, code := classifyRunError(c.err)
		if code != c.code || !strings.Contains(msg, c.want) {
			t.Errorf("classifyRunError(%v) = %q, %d; want code %d containing %q", c.err, msg, code, c.code, c.want)
		}
	}
	// The breakdown advice names only remedies a flag reaches.
	msg, _ := classifyRunError(lucrtp.ErrBreakdown)
	advice := msg[strings.LastIndex(msg, "\n")+1:]
	if got := regexp.MustCompile(`-[a-z]+`).FindAllString(advice, -1); strings.Join(got, " ") != "-k -tol" || strings.Contains(advice, "StableL") {
		t.Errorf("breakdown advice %q names %v, want only -k and -tol", advice, got)
	}
}
