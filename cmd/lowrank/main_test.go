package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
		got, err := parseScale(in)
		if err != nil || got != want {
			t.Fatalf("parseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseScale("huge"); err == nil {
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
		t.Fatal("expected error for unknown label")
	}
	if _, _, err := loadMatrix("M1", "bogus"); err == nil {
		t.Fatal("expected error for bad scale")
	}
}

func TestLoadMatrixFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	orig := gen.Circuit(20, 3, 1)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteMatrixMarket(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a, _, err := loadMatrix(path, "small")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig, 0) {
		t.Fatal("file load changed the matrix")
	}
	if _, _, err := loadMatrix(filepath.Join(dir, "missing.mtx"), "small"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestValidateFlags(t *testing.T) {
	ok := flagValues{matrix: "M1", scale: "small", method: "LU_CRTP", k: 16,
		tol: 1e-2, power: 1, np: 1, sketch: "gaussian"}
	if _, _, err := validateFlags(ok); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	// -sketchnnz with the sparsesign sketch is the one place it is legal.
	sp := ok
	sp.sketch = "sparsesign"
	sp.sketchNNZ = 4
	if _, _, err := validateFlags(sp); err != nil {
		t.Fatalf("sparsesign+sketchnnz rejected: %v", err)
	}
	mutate := func(f func(*flagValues)) flagValues { v := ok; f(&v); return v }
	bad := map[string]flagValues{
		"unknown method":        mutate(func(v *flagValues) { v.method = "nope" }),
		"unknown sketch":        mutate(func(v *flagValues) { v.sketch = "nope" }),
		"unknown scale":         mutate(func(v *flagValues) { v.scale = "huge" }),
		"zero block":            mutate(func(v *flagValues) { v.k = 0 }),
		"negative block":        mutate(func(v *flagValues) { v.k = -4 }),
		"negative tol":          mutate(func(v *flagValues) { v.tol = -1e-3 }),
		"zero tol no maxrank":   mutate(func(v *flagValues) { v.tol = 0 }),
		"negative maxrank":      mutate(func(v *flagValues) { v.maxRank = -1 }),
		"power out of range":    mutate(func(v *flagValues) { v.power = 4 }),
		"negative np":           mutate(func(v *flagValues) { v.np = -2 }),
		"tsvd distributed":      mutate(func(v *flagValues) { v.method = "tsvd"; v.np = 4 }),
		"cur distributed":       mutate(func(v *flagValues) { v.method = "cur"; v.np = 2 }),
		"sketchnnz w/ gaussian": mutate(func(v *flagValues) { v.sketchNNZ = 4 }),
		"negative sketchnnz":    mutate(func(v *flagValues) { v.sketch = "sparsesign"; v.sketchNNZ = -1 }),
	}
	for name, v := range bad {
		if _, _, err := validateFlags(v); err == nil {
			t.Errorf("%s: accepted %+v", name, v)
		}
	}
	// Every method runs on a one-rank world, so -np 0 and 1 are legal
	// for all ten.
	for _, mi := range core.Methods() {
		for _, np := range []int{0, 1} {
			if _, _, err := validateFlags(mutate(func(v *flagValues) { v.method = mi.Name; v.np = np })); err != nil {
				t.Fatalf("%s at -np %d rejected: %v", mi.Name, np, err)
			}
		}
	}
	// Zero tol with a rank cap is the legal fixed-rank mode.
	fr := mutate(func(v *flagValues) { v.tol = 0; v.maxRank = 8 })
	if _, _, err := validateFlags(fr); err != nil {
		t.Fatalf("fixed-rank flags rejected: %v", err)
	}
	// A non-generator matrix path skips scale validation.
	file := mutate(func(v *flagValues) { v.matrix = "data/x.mtx"; v.scale = "bogus" })
	if _, _, err := validateFlags(file); err != nil {
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
}
