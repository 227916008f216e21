package serve

import (
	"math"
	"net/url"
	"testing"
)

// FuzzSpec hardens the submit path a client reaches with one request:
// ParseSubmitBody (JSON body, or a MatrixMarket body with the knobs in
// the query string), then Validate, then Key. Nothing may panic, and a
// spec Validate accepts has a finite τ ≥ 0 — a NaN τ compares false with
// every stopping bound and would buy a full-rank solve — and options the
// library accepts, so the daemon never queues a job core.Approximate
// rejects.
func FuzzSpec(f *testing.F) {
	f.Add(false, mmBody, "tol=NaN")
	f.Add(false, mmBody, "tol=Inf&maxrank=4")
	f.Add(false, mmBody, "tol=1e-2&k=8&power=1&method=qb&sketch=sparsesign&sketchnnz=4")
	f.Add(false, mmBody, "tol=0&maxrank=2&procs=2&method=lu")
	f.Add(true, `{"matrix":"M3","method":"qb","tol":1e-2}`, "")
	f.Add(true, `{"matrix":"M1","scale":"medium","method":"cur","max_rank":8,"power":2}`, "")
	f.Add(true, `{"matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n","method":"ilut","tol":1e308}`, "")
	f.Add(true, `{"matrix":"M3","method":"qb","tol":-0}`, "")
	f.Fuzz(func(t *testing.T, isJSON bool, body, query string) {
		if len(body) > 1<<14 {
			return
		}
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		contentType := "text/plain"
		if isJSON {
			contentType = "application/json"
		}
		s, err := ParseSubmitBody(contentType, []byte(body), q)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		if math.IsNaN(s.Tol) || math.IsInf(s.Tol, 0) || s.Tol < 0 {
			t.Fatalf("Validate accepted τ = %v", s.Tol)
		}
		if err := s.CoreOptions().Validate(); err != nil {
			t.Fatalf("Validate accepted a spec whose options the library rejects: %v", err)
		}
		if len(s.Key()) != 64 {
			t.Fatalf("key %q is not a SHA-256 hex digest", s.Key())
		}
	})
}
