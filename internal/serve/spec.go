package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/gen"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// Spec is one approximation request. The matrix comes either from a
// named internal/gen Table I workload (Generator + Scale) or from an
// uploaded MatrixMarket body (MatrixMarket); exactly one must be set.
//
// The JSON field names are the wire format of POST /v1/jobs.
type Spec struct {
	Generator    string `json:"matrix,omitempty"`        // "M1".."M6"
	Scale        string `json:"scale,omitempty"`         // small|medium|large ("" = small)
	MatrixMarket string `json:"matrix_market,omitempty"` // inline MatrixMarket body

	Method    string  `json:"method"`               // core.ParseMethod spellings
	Tol       float64 `json:"tol,omitempty"`        // τ (0 needs MaxRank > 0)
	BlockSize int     `json:"block,omitempty"`      // k (0 = 16)
	Power     int     `json:"power,omitempty"`      // power p ∈ [0,3] of RandQB_EI, RSVD, CUR and ID2
	MaxRank   int     `json:"max_rank,omitempty"`   // rank cap (0 = min(m,n))
	Seed      int64   `json:"seed,omitempty"`       // PRNG seed
	Sketch    string  `json:"sketch,omitempty"`     // gaussian|sparsesign|srtt
	SketchNNZ int     `json:"sketch_nnz,omitempty"` // sparsesign nnz per Ω row
	Procs     int     `json:"procs,omitempty"`      // virtual ranks (0 or 1 = one, >1 = distributed run)

	// CheckpointEvery > 0 (with Procs > 1) checkpoints the distributed
	// loop every that many iterations into the daemon's ResumeRegistry,
	// enabling resume after a restart. Not part of the cache key: it
	// does not change the result.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DeadlineMS bounds the job's queue wait: a job still queued when
	// the deadline passes is never started. 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Resolved by Validate.
	method     core.Method
	sketchKind sketch.Kind
	scale      gen.Scale
}

// DefaultBlockSize is the block size k used when a Spec leaves it 0.
const DefaultBlockSize = 16

// Validate normalizes the spec: it resolves the method, sketch and
// scale spellings, defaults the block size, checks the rules that are
// the daemon's own (one matrix source, checkpoint cadence, deadline)
// and then the request contract, core.Options.Validate, on CoreOptions.
// It must be called (once) before Key, Matrix or CoreOptions.
func (s *Spec) Validate() error {
	if (s.Generator == "") == (s.MatrixMarket == "") {
		return fmt.Errorf("serve: need exactly one of a generator label (matrix) or an uploaded matrix (matrix_market)")
	}
	if s.Generator != "" && !gen.IsLabel(s.Generator) {
		return fmt.Errorf("serve: unknown generator %q (want M1..M6)", s.Generator)
	}
	var err error
	if s.scale, err = gen.ParseScale(s.Scale); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.method, err = core.ParseMethod(s.Method); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.sketchKind, err = sketch.ParseKind(s.Sketch); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.BlockSize == 0 {
		s.BlockSize = DefaultBlockSize
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("serve: checkpoint_every must be nonnegative, got %d", s.CheckpointEvery)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("serve: deadline_ms must be nonnegative, got %d", s.DeadlineMS)
	}
	if err := s.CoreOptions().Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Canonicalize the wire spellings so equivalent requests share a
	// cache key regardless of which alias the client used. Procs 1 is
	// the one-rank world Procs 0 already runs, so it keys as 0.
	s.Method = s.method.String()
	s.Sketch = s.sketchKind.String()
	s.Scale = s.scale.String()
	if s.Procs == 1 {
		s.Procs = 0
	}
	return nil
}

// MatrixDigest content-addresses the matrix source: the generator spec
// for named workloads, a SHA-256 of the uploaded bytes otherwise.
func (s *Spec) MatrixDigest() string {
	if s.Generator != "" {
		return fmt.Sprintf("gen:%s:%s", s.Generator, s.Scale)
	}
	sum := sha256.Sum256([]byte(s.MatrixMarket))
	return "mm:" + hex.EncodeToString(sum[:])
}

// Key is the content-addressed cache/singleflight key: a SHA-256 over
// the canonical encoding of every field that determines the result.
// Operational knobs (deadline, checkpoint cadence) are excluded.
func (s *Spec) Key() string {
	canon := fmt.Sprintf("v1|matrix=%s|method=%s|tol=%.17g|k=%d|power=%d|maxrank=%d|seed=%d|sketch=%s|nnz=%d|procs=%d",
		s.MatrixDigest(), s.Method, s.Tol, s.BlockSize, s.Power, s.MaxRank, s.Seed, s.Sketch, s.SketchNNZ, s.Procs)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// Matrix materializes the input matrix (generator run or MatrixMarket
// parse). Called by the worker, off the request path.
func (s *Spec) Matrix() (*sparse.CSR, error) {
	if s.Generator != "" {
		pm, err := gen.ByLabel(s.Generator, s.scale)
		if err != nil {
			return nil, err
		}
		return pm.A, nil
	}
	return sparse.ReadMatrixMarket(bytes.NewReader([]byte(s.MatrixMarket)))
}

// CoreOptions translates the spec into the library entry-point options.
func (s *Spec) CoreOptions() core.Options {
	return core.Options{
		Method:    s.method,
		BlockSize: s.BlockSize,
		Tol:       s.Tol,
		Power:     s.Power,
		MaxRank:   s.MaxRank,
		Seed:      s.Seed,
		Sketch:    s.sketchKind,
		SketchNNZ: s.SketchNNZ,
		Procs:     s.Procs,
	}
}

// batchEligibleMMBytes bounds the MatrixMarket body size of a
// batch-eligible upload: larger inputs are big enough to keep the
// kernel pool busy on their own.
const batchEligibleMMBytes = 256 << 10

// BatchEligible reports whether the job is small enough that running
// it inside a batched pool submission beats a dedicated solve: a
// non-distributed run on either a small-scale generator workload or a
// modest MatrixMarket upload. Larger problems parallelize internally,
// so batching them would only serialize their kernels.
func (s *Spec) BatchEligible() bool {
	if s.Procs > 1 {
		return false
	}
	if s.Generator != "" {
		return s.scale == gen.Small
	}
	return len(s.MatrixMarket) <= batchEligibleMMBytes
}

// Deadline resolves the job deadline against the server default (0 =
// no deadline).
func (s *Spec) Deadline(now time.Time, def time.Duration) time.Time {
	d := def
	if s.DeadlineMS > 0 {
		d = time.Duration(s.DeadlineMS) * time.Millisecond
	}
	if d <= 0 {
		return time.Time{}
	}
	return now.Add(d)
}

// Checkpointed reports whether the job participates in checkpoint/
// restart resume (distributed run with a checkpoint cadence).
func (s *Spec) Checkpointed() bool {
	return s.Procs > 1 && s.CheckpointEvery > 0
}
