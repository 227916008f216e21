package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"sparselr/internal/gen"
)

// factorGoldenMethods is one method per result kind; ID2 and ACA share
// CUR's layout and ILUT_CRTP shares LU_CRTP's.
var factorGoldenMethods = []string{"RandQB_EI", "RandUBV", "LU_CRTP", "TSVD", "RSVD", "ARRF", "CUR"}

// TestFactorExportGolden pins, for one small solve of every result
// kind, the factor list and factor_nnz of the job view, the cache cost
// approxBytes charges, every factor export body (JSON and MatrixMarket,
// by length and SHA-256) and the 400 body for an unknown factor name,
// against testdata/factors.golden.
func TestFactorExportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/factors.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderFactorGolden(t)
	if !bytes.Equal(got, want) {
		t.Errorf("factor exports differ from testdata/factors.golden:\n%s", got)
	}
}

func renderFactorGolden(t *testing.T) []byte {
	t.Helper()
	srv := NewServer(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var mm strings.Builder
	if err := gen.RandLowRank(48, 40, 12, 0.5, 6, 7).WriteMatrixMarket(&mm); err != nil {
		t.Fatal(err)
	}
	get := func(url string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	var out bytes.Buffer
	for _, method := range factorGoldenMethods {
		spec, _ := json.Marshal(Spec{MatrixMarket: mm.String(), Method: method, Tol: 0.1, BlockSize: 4, Seed: 3})
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=60s", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if sr.Status != StatusDone || sr.Result == nil {
			t.Fatalf("%s: solve failed: %+v", method, sr.View)
		}
		job, _ := srv.sched.Job(sr.ID)
		ap, _ := job.Result()
		names, _ := json.Marshal(sr.Result.Factors)
		fmt.Fprintf(&out, "== %s rank=%d\nfactors %s\nfactor_nnz %d\napprox_bytes %d\n",
			method, sr.Result.Rank, names, sr.Result.NNZFactors, approxBytes(ap))
		for _, name := range sr.Result.Factors {
			for _, format := range []string{"json", "mm"} {
				code, ctype, body := get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/" + name + "?format=" + format)
				fmt.Fprintf(&out, "%s %s: %d %s len=%d sha256=%x\n", name, format, code, ctype, len(body), sha256.Sum256(body))
			}
		}
		code, ctype, body := get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/Z")
		fmt.Fprintf(&out, "Z json: %d %s\n%s", code, ctype, body)
	}
	return out.Bytes()
}
