package dist

// Fault injection for the virtual-clock runtime (DESIGN.md §4d). A
// FaultPlan attached to Config describes a deterministic set of faults:
// rank crashes at a virtual time, per-message drop/duplicate/bit-flip
// selected by (src, dst, tag, seq), and stragglers whose α/β/γ are
// scaled. A nil FaultPlan costs nothing: no per-message state is
// allocated and the virtual clocks are bit-identical to the fault-free
// runtime.

import (
	"errors"
	"fmt"
	"math"

	"sparselr/internal/mat"
)

// ErrInjectedCrash marks a *RankError produced by a FaultPlan crash.
var ErrInjectedCrash = errors.New("dist: injected rank crash")

// ErrAborted marks a *RankError of a surviving rank that was unwound
// because its blocking Recv could never complete (a peer failed or
// exited, or the run deadlocked). The root cause is reported separately;
// aborts are never selected as RunE's primary error when a real failure
// or deadlock explains them.
var ErrAborted = errors.New("dist: rank aborted; blocking receive can never complete")

// ErrNumericalPoison marks a *RankError raised by the opt-in
// Config.CheckNumerics guard when a collective payload contains a NaN or
// an infinity.
var ErrNumericalPoison = errors.New("dist: non-finite value in collective payload")

// RankError is the structured failure of one rank inside RunE: which
// rank failed, at what virtual time, in which phase (kernel, collective
// or "body"), and why. It unwraps to the underlying cause so callers can
// use errors.Is against ErrInjectedCrash, lucrtp.ErrBreakdown, etc.
type RankError struct {
	Rank        int
	VirtualTime float64
	Phase       string
	Err         error
}

func (e *RankError) Error() string {
	phase := e.Phase
	if phase == "" {
		phase = "body"
	}
	return fmt.Sprintf("dist: rank %d failed at t=%.6gs in %s: %v", e.Rank, e.VirtualTime, phase, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// FaultOp selects what happens to a message matched by a MessageFault.
type FaultOp int

const (
	// DropMessage charges the sender normally but never delivers the
	// message (a lost message; the receiver's blocking Recv is then
	// caught by the deadlock detector instead of hanging).
	DropMessage FaultOp = iota
	// DuplicateMessage delivers the message twice.
	DuplicateMessage
	// CorruptMessage flips one exponent bit of one element of a
	// []float64 or *mat.Dense payload (deterministically chosen from the
	// plan seed and the message coordinates). Other payload types pass
	// through unchanged.
	CorruptMessage
)

func (op FaultOp) String() string {
	switch op {
	case DropMessage:
		return "drop"
	case DuplicateMessage:
		return "duplicate"
	case CorruptMessage:
		return "corrupt"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// Crash kills a rank the first time its virtual clock reaches At
// seconds. A rank that finishes earlier never crashes.
type Crash struct {
	Rank int
	At   float64 // virtual seconds
}

// MessageFault selects messages by coordinates: Src→Dst point-to-point
// messages with the given Tag and per-(src,dst,tag) sequence number
// (0-based, in sender program order). Tag < 0 matches any tag; Seq < 0
// matches every occurrence.
type MessageFault struct {
	Src, Dst int
	Tag      int // < 0: any tag
	Seq      int // < 0: every matching message
	Op       FaultOp
}

// Straggler slows one rank: CommScale multiplies its α and β charges,
// ComputeScale its γ. Zero scales mean 1 (unchanged).
type Straggler struct {
	Rank         int
	CommScale    float64
	ComputeScale float64
}

// FaultPlan is a deterministic, seeded fault schedule for one run.
type FaultPlan struct {
	// Seed drives the corrupt-bit selection (not needed for crashes,
	// drops or stragglers, which are fully explicit).
	Seed       int64
	Crashes    []Crash
	Messages   []MessageFault
	Stragglers []Straggler
}

// rankFaults is the per-rank slice of a FaultPlan, precomputed at Comm
// construction so the hot paths test a single pointer.
type rankFaults struct {
	crashAt float64        // +Inf when the rank never crashes
	rules   []MessageFault // message faults with Src == this rank
	seq     map[pairKey]int
	seed    int64
}

// faultsFor extracts rank r's fault state; nil when the plan holds
// nothing for this rank (the common case even under a non-nil plan).
func (fp *FaultPlan) faultsFor(r int) *rankFaults {
	if fp == nil {
		return nil
	}
	rf := &rankFaults{crashAt: math.Inf(1), seed: fp.Seed}
	hit := false
	for _, c := range fp.Crashes {
		if c.Rank == r && c.At < rf.crashAt {
			rf.crashAt = c.At
			hit = true
		}
	}
	for _, m := range fp.Messages {
		if m.Src == r {
			rf.rules = append(rf.rules, m)
			hit = true
		}
	}
	if !hit {
		return nil
	}
	if len(rf.rules) > 0 {
		rf.seq = map[pairKey]int{}
	}
	return rf
}

// scales returns rank r's (comm, compute) multipliers under the plan.
func (fp *FaultPlan) scales(r int) (comm, compute float64) {
	comm, compute = 1, 1
	if fp == nil {
		return
	}
	for _, s := range fp.Stragglers {
		if s.Rank != r {
			continue
		}
		if s.CommScale > 0 {
			comm *= s.CommScale
		}
		if s.ComputeScale > 0 {
			compute *= s.ComputeScale
		}
	}
	return
}

// match returns the fault op applied to the seq-th message to (dst, tag)
// and advances the sequence counter.
func (rf *rankFaults) match(dst, tag int) (FaultOp, int, bool) {
	if len(rf.rules) == 0 {
		return 0, 0, false
	}
	k := pairKey{dst, tag}
	seq := rf.seq[k]
	rf.seq[k] = seq + 1
	for _, r := range rf.rules {
		if r.Dst == dst && (r.Tag < 0 || r.Tag == tag) && (r.Seq < 0 || r.Seq == seq) {
			return r.Op, seq, true
		}
	}
	return 0, seq, false
}

// crashSignal is the panic payload of an injected crash; RunE converts
// it into a *RankError.
type crashSignal struct{ phase string }

// abortSignal is the panic payload of a poisoned blocking receive; RunE
// converts it into a secondary *RankError wrapping ErrAborted.
type abortSignal struct{ err error }

// checkCrash kills the rank once its clock reaches the planned instant.
// The clock is pinned to the crash time so the reported virtual time is
// the planned one regardless of which operation crossed it.
func (c *Comm) checkCrash(phase string) {
	if c.clock >= c.fault.crashAt {
		c.clock = c.fault.crashAt
		panic(crashSignal{phase: phase})
	}
}

// splitmix64 is the standard SplitMix64 mixer, used to pick the
// corrupted element/bit deterministically from the plan seed and the
// message coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// corrupt returns a bit-flipped copy of a float payload ([]float64 or
// *mat.Dense); other payload types are returned unchanged. The flipped
// bit is an exponent bit, so the corruption is large (often NaN/Inf) and
// the CheckNumerics guard can name it.
func (rf *rankFaults) corrupt(data interface{}, dst, tag, seq int) interface{} {
	h := splitmix64(uint64(rf.seed) ^ uint64(dst)<<40 ^ uint64(tag)<<20 ^ uint64(seq))
	flip := func(xs []float64) []float64 {
		if len(xs) == 0 {
			return xs
		}
		out := append([]float64(nil), xs...)
		i := int(h % uint64(len(out)))
		bit := 52 + int((h>>32)%11) // one of the 11 exponent bits
		out[i] = math.Float64frombits(math.Float64bits(out[i]) ^ 1<<uint(bit))
		return out
	}
	switch v := data.(type) {
	case []float64:
		return flip(v)
	case *mat.Dense:
		if len(v.Data) == 0 {
			return v
		}
		out := v.Clone()
		out.Data = flip(out.Data)
		return out
	}
	return data
}

// guardPayload implements the opt-in CheckNumerics check: a []float64 or
// *mat.Dense payload containing a NaN or infinity raises a *RankError
// naming the collective, the rank and the first poisoned element.
func (c *Comm) guardPayload(name string, data interface{}) {
	var xs []float64
	switch v := data.(type) {
	case []float64:
		xs = v
	case *mat.Dense:
		xs = v.Data
	default:
		return
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			panic(&RankError{
				Rank: c.rank, VirtualTime: c.clock, Phase: name,
				Err: fmt.Errorf("%w: element %d is %v in %s payload on rank %d", ErrNumericalPoison, i, x, name, c.rank),
			})
		}
	}
}
