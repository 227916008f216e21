package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// TestClientRebuildsApproximation plays a client of the documented
// product rule: it fetches every listed factor as MatrixMarket and
// multiplies them in order, V entering transposed and S as a diagonal
// (ARRF's Q as Q·Qᵀ·A). ‖A − Â‖_F must match TrueError to 1e-12
// relative. For LU the JSON index vectors must place L·U's entry (i, j)
// at (Pr[i], Pc[j]) of the same Â.
func TestClientRebuildsApproximation(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	a := gen.RandLowRank(48, 40, 12, 0.5, 6, 7)
	var mm strings.Builder
	if err := a.WriteMatrixMarket(&mm); err != nil {
		t.Fatal(err)
	}
	fetch := func(id, name, format string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/factors/" + name + "?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %v %s", name, format, resp.StatusCode, err, body)
		}
		return body
	}
	for _, method := range append(factorGoldenMethods[:len(factorGoldenMethods):len(factorGoldenMethods)], "ILUT_CRTP") {
		spec, _ := json.Marshal(Spec{MatrixMarket: mm.String(), Method: method, Tol: 0.1, BlockSize: 4, Seed: 3})
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=60s", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if sr.Status != StatusDone || sr.Result == nil {
			t.Fatalf("%s: solve failed: %+v", method, sr.View)
		}
		job, _ := srv.sched.Job(sr.ID)
		ap, _ := job.Result()

		var ahat *mat.Dense
		for _, name := range sr.Result.Factors {
			f, err := readMMDense(fetch(sr.ID, name, "mm"))
			if err != nil {
				t.Fatalf("%s %s: %v", method, name, err)
			}
			switch name {
			case "V":
				f = f.T()
			case "S":
				d := mat.NewDense(f.Rows, f.Rows)
				for i := 0; i < f.Rows; i++ {
					d.Set(i, i, f.At(i, 0))
				}
				f = d
			}
			if ahat == nil {
				ahat = f
			} else {
				ahat = mat.Mul(ahat, f)
			}
		}
		if method == "ARRF" {
			ahat = mat.Mul(ahat, mat.Mul(ahat.T(), a.ToDense()))
		}
		diff := a.ToDense()
		diff.Sub(ahat)
		te := ap.TrueError(a)
		if got := diff.FrobNorm(); math.Abs(got-te) > 1e-12*te {
			t.Errorf("%s: client ‖A − Â‖_F = %.17g, TrueError %.17g", method, got, te)
		}

		if method != "LU_CRTP" && method != "ILUT_CRTP" {
			continue
		}
		var pr, pc struct{ Perm []int }
		if err := json.Unmarshal(fetch(sr.ID, "Pr", "json"), &pr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fetch(sr.ID, "Pc", "json"), &pc); err != nil {
			t.Fatal(err)
		}
		l, err := readMMDense(fetch(sr.ID, "L", "mm"))
		if err != nil {
			t.Fatal(err)
		}
		u, err := readMMDense(fetch(sr.ID, "U", "mm"))
		if err != nil {
			t.Fatal(err)
		}
		lu := mat.Mul(l, u)
		placed := mat.NewDense(a.Rows, a.Cols)
		for i := 0; i < lu.Rows; i++ {
			for j := 0; j < lu.Cols; j++ {
				placed.Set(pr.Perm[i], pc.Perm[j], lu.At(i, j))
			}
		}
		if !placed.Equal(ahat, 0) {
			t.Errorf("%s: the JSON index vectors do not place L·U where the MatrixMarket product does", method)
		}
	}
}

// readMMDense parses a MatrixMarket factor export: coordinate format
// through sparse.ReadMatrixMarket, dense array format (column-major)
// directly.
func readMMDense(body []byte) (*mat.Dense, error) {
	if !bytes.HasPrefix(body, []byte("%%MatrixMarket matrix array")) {
		c, err := sparse.ReadMatrixMarket(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return c.ToDense(), nil
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Scan() // banner
	var r, c int
	if !sc.Scan() {
		return nil, fmt.Errorf("no size line")
	}
	if _, err := fmt.Sscan(sc.Text(), &r, &c); err != nil {
		return nil, err
	}
	d := mat.NewDense(r, c)
	for k := 0; k < r*c; k++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("%d of %d entries", k, r*c)
		}
		var v float64
		if _, err := fmt.Sscan(sc.Text(), &v); err != nil {
			return nil, err
		}
		d.Set(k%r, k/r, v)
	}
	return d, nil
}
