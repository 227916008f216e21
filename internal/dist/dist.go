package dist

import (
	"errors"
	"fmt"
	"sync"
)

// Config holds the performance-model parameters and optional tracing
// sink. The three scalars define the α–β–γ cost model specified in
// DESIGN.md §4c.
type Config struct {
	Alpha float64 // message latency, seconds
	Beta  float64 // seconds per byte transferred
	Gamma float64 // seconds per floating-point operation

	// Tracer, when non-nil, receives one Event per virtual-clock
	// advance on every rank. A nil Tracer (the default) is free: no
	// events are constructed and no tracing state is allocated.
	Tracer Tracer

	// Fault, when non-nil, injects the deterministic fault schedule of
	// DESIGN.md §4d: rank crashes at virtual times, message
	// drop/duplicate/corrupt by (src, dst, tag, seq), and straggler
	// scaling of a rank's α/β/γ. A nil plan costs nothing and leaves
	// the virtual clocks bit-identical.
	Fault *FaultPlan

	// CheckNumerics, when set, validates float collective payloads
	// (own contributions and received partials) and fails the rank with
	// a *RankError wrapping ErrNumericalPoison naming the first
	// poisoned collective. Off by default; it touches every element.
	CheckNumerics bool
}

// DefaultConfig models a commodity cluster node: ~1 µs MPI latency,
// ~10 GB/s effective bandwidth, ~2 GFLOP/s effective scalar compute.
// The ratios, not the absolute values, shape the scaling curves.
func DefaultConfig() Config {
	return Config{Alpha: 1e-6, Beta: 1e-10, Gamma: 5e-10}
}

type message struct {
	src, tag  int
	data      interface{}
	bytes     int
	sendStart float64 // sender clock when the send began
}

// World owns the message network of a running SPMD program.
type World struct {
	p   int
	cfg Config
	net network
	wg  sync.WaitGroup
}

// pairKey indexes per-(peer, tag) message sequence counters.
type pairKey struct{ peer, tag int }

// Comm is one rank's handle into the world. It is not safe for use from
// multiple goroutines; each rank owns exactly one.
type Comm struct {
	world  *World
	rank   int
	tracer Tracer

	// Per-rank cost-model parameters: the Config scalars, scaled by the
	// rank's straggler entry when a FaultPlan is attached.
	alpha, beta, gamma float64
	fault              *rankFaults // nil unless the plan names this rank

	clock float64
	commT float64 // latency + bandwidth + wait
	compT float64 // Compute/Elapse time
	latT  float64 // α terms
	bwT   float64 // β·bytes terms
	waitT float64 // max-propagation idle inside Recv

	kernels  map[string]float64
	korder   []string
	msgsOut  int
	bytesOut int
	msgsIn   int
	bytesIn  int

	colls     map[string]*CollectiveStats
	collOrder []string
	collName  string  // innermost-entered top-level collective
	collDepth int     // nesting depth (Allreduce calls Reduce+Bcast)
	collStart float64 // clock at top-level entry
	collMsgs  int
	collBytes int

	// Message sequence counters for trace flow-edge matching; allocated
	// lazily and only when a tracer is attached.
	sendSeq map[pairKey]int
	recvSeq map[pairKey]int

	// How the body ended, set by run: its failure (error, panic or
	// injected crash) or its unwinding at a Recv that could never
	// complete.
	err, abort *RankError
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.p }

// CommTime returns the virtual time this rank has spent communicating.
func (c *Comm) CommTime() float64 { return c.commT }

// Compute advances the virtual clock by flops·Gamma and attributes the
// time to the named kernel (Figs 5–6 use these attributions).
func (c *Comm) Compute(flops float64, kernel string) {
	if flops < 0 {
		panic("dist: negative flop count")
	}
	start := c.clock
	dt := flops * c.gamma
	c.clock += dt
	c.compT += dt
	c.addKernel(kernel, dt)
	if c.fault != nil {
		c.checkCrash(computeName(kernel))
	}
	if c.tracer != nil && dt > 0 {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvCompute, Name: computeName(kernel),
			Start: start, End: c.clock, Flops: flops, Peer: -1,
		})
	}
}

// Elapse advances the virtual clock by dt seconds directly.
func (c *Comm) Elapse(dt float64, kernel string) {
	if dt < 0 {
		panic("dist: negative elapsed time")
	}
	start := c.clock
	c.clock += dt
	c.compT += dt
	c.addKernel(kernel, dt)
	if c.fault != nil {
		c.checkCrash(computeName(kernel))
	}
	if c.tracer != nil && dt > 0 {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvCompute, Name: computeName(kernel),
			Start: start, End: c.clock, Peer: -1,
		})
	}
}

func computeName(kernel string) string {
	if kernel == "" {
		return "compute"
	}
	return kernel
}

// Tracing reports whether a Tracer is attached. Callers building marker
// strings should guard on it so a disabled trace costs nothing.
func (c *Comm) Tracing() bool { return c.tracer != nil }

// Annotate emits an instant marker event (phase boundaries, iteration
// starts) into the trace. It costs no virtual time and is a no-op when
// tracing is disabled.
func (c *Comm) Annotate(name string) {
	if c.tracer != nil {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvMark, Name: name,
			Start: c.clock, End: c.clock, Peer: -1,
		})
	}
}

func (c *Comm) addKernel(kernel string, dt float64) {
	if kernel == "" {
		return
	}
	if _, ok := c.kernels[kernel]; !ok {
		c.korder = append(c.korder, kernel)
	}
	c.kernels[kernel] += dt
}

// p2pName labels a point-to-point trace event: messages issued inside a
// collective carry the collective's name.
func (c *Comm) p2pName(fallback string) string {
	if c.collDepth > 0 && c.collName != "" {
		return c.collName
	}
	return fallback
}

func nextSeq(m *map[pairKey]int, peer, tag int) int {
	if *m == nil {
		*m = map[pairKey]int{}
	}
	k := pairKey{peer, tag}
	s := (*m)[k]
	(*m)[k] = s + 1
	return s
}

// Send transmits data to rank dst with a matching tag. bytes is the
// payload size used by the cost model. The call charges the sender
// α + β·bytes and never blocks (message queues are unbounded).
func (c *Comm) Send(dst, tag int, data interface{}, bytes int) {
	if dst < 0 || dst >= c.world.p {
		panic(fmt.Sprintf("dist: send to invalid rank %d", dst))
	}
	start := c.clock
	dt := c.alpha + c.beta*float64(bytes)
	c.clock += dt
	c.commT += dt
	c.latT += c.alpha
	c.bwT += c.beta * float64(bytes)
	c.msgsOut++
	c.bytesOut += bytes
	if c.collDepth > 0 {
		c.collMsgs++
		c.collBytes += bytes
	}
	deliveries := 1
	if c.fault != nil {
		c.checkCrash(c.p2pName("send"))
		if op, seq, ok := c.fault.match(dst, tag); ok {
			switch op {
			case DropMessage:
				deliveries = 0
			case DuplicateMessage:
				deliveries = 2
			case CorruptMessage:
				data = c.fault.corrupt(data, dst, tag, seq)
			}
		}
	}
	if c.tracer != nil {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvSend, Name: c.p2pName("send"),
			Start: start, End: c.clock, Bytes: bytes,
			Peer: dst, Tag: tag, Seq: nextSeq(&c.sendSeq, dst, tag),
		})
	}
	for i := 0; i < deliveries; i++ {
		c.world.net.put(dst, message{src: c.rank, tag: tag, data: data, bytes: bytes, sendStart: start})
	}
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. The receiver clock advances to
// max(own, senderStart) + α + β·bytes. If the run reaches a state where
// the message can never arrive (deadlock, failed or exited sender) the
// rank unwinds with a *RankError instead of blocking forever.
func (c *Comm) Recv(src, tag int) interface{} {
	return c.recvFull(src, tag).data
}

func (c *Comm) recvFull(src, tag int) message {
	if src < 0 || src >= c.world.p {
		panic(fmt.Sprintf("dist: recv from invalid rank %d", src))
	}
	m := c.world.net.get(c.rank, src, tag, c.clock)
	before := c.clock
	var wait float64
	if m.sendStart > c.clock {
		wait = m.sendStart - c.clock
		c.clock = m.sendStart
	}
	dt := c.alpha + c.beta*float64(m.bytes)
	c.clock += dt
	c.commT += c.clock - before
	c.latT += c.alpha
	c.bwT += c.beta * float64(m.bytes)
	c.waitT += wait
	c.msgsIn++
	c.bytesIn += m.bytes
	if c.collDepth > 0 {
		c.collMsgs++
		c.collBytes += m.bytes
	}
	if c.fault != nil {
		c.checkCrash(c.p2pName("recv"))
	}
	if c.tracer != nil {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvRecv, Name: c.p2pName("recv"),
			Start: before, End: c.clock, Bytes: m.bytes,
			Peer: src, Tag: tag, Seq: nextSeq(&c.recvSeq, src, tag),
			SrcStart: m.sendStart, Waited: wait,
		})
	}
	return m
}

// SendFloats sends a float64 slice, deriving the byte count.
func (c *Comm) SendFloats(dst, tag int, x []float64) { c.Send(dst, tag, x, 8*len(x)) }

// RecvFloats receives a float64 slice. A message with a different
// payload type fails the rank with a descriptive *RankError (wrapping
// ErrTypeMismatch, naming the peer, tag and both types) instead of a
// bare interface-assertion panic.
func (c *Comm) RecvFloats(src, tag int) []float64 {
	m := c.Recv(src, tag)
	v, ok := m.([]float64)
	if !ok {
		panic(c.typeMismatch(src, tag, "[]float64", m))
	}
	return v
}

// RecvInts receives an int slice with the same checked-type contract as
// RecvFloats.
func (c *Comm) RecvInts(src, tag int) []int {
	m := c.Recv(src, tag)
	v, ok := m.([]int)
	if !ok {
		panic(c.typeMismatch(src, tag, "[]int", m))
	}
	return v
}

func (c *Comm) typeMismatch(src, tag int, want string, got interface{}) *RankError {
	return &RankError{
		Rank: c.rank, VirtualTime: c.clock, Phase: c.p2pName("recv"),
		Err: fmt.Errorf("%w: receive from rank %d tag %d got %T, want %s", ErrTypeMismatch, src, tag, got, want),
	}
}

// beginCollective enters a named collective region. It returns true for
// the outermost entry; nested collectives (Allreduce's internal Reduce
// and Bcast) keep the outer attribution.
func (c *Comm) beginCollective(name string) bool {
	c.collDepth++
	if c.collDepth > 1 {
		return false
	}
	c.collName = name
	c.collStart = c.clock
	c.collMsgs = 0
	c.collBytes = 0
	return true
}

// endCollective leaves a collective region; top must be beginCollective's
// return value. The outermost exit records the call into the per-kind
// histogram and emits the collective span event.
func (c *Comm) endCollective(top bool) {
	c.collDepth--
	if !top {
		return
	}
	st, ok := c.colls[c.collName]
	if !ok {
		if c.colls == nil {
			c.colls = map[string]*CollectiveStats{}
		}
		st = &CollectiveStats{}
		c.colls[c.collName] = st
		c.collOrder = append(c.collOrder, c.collName)
	}
	st.Calls++
	st.Msgs += c.collMsgs
	st.Bytes += c.collBytes
	st.Time += c.clock - c.collStart
	if c.tracer != nil {
		c.tracer.TraceEvent(Event{
			Rank: c.rank, Kind: EvCollective, Name: c.collName,
			Start: c.collStart, End: c.clock, Bytes: c.collBytes, Peer: -1,
		})
	}
	c.collName = ""
}

// guardCollective applies the CheckNumerics payload guard with the
// active collective's name (or the fallback when called outside one).
func (c *Comm) guardCollective(fallback string, data interface{}) {
	if !c.world.cfg.CheckNumerics {
		return
	}
	name := fallback
	if c.collDepth > 0 && c.collName != "" {
		name = c.collName
	}
	c.guardPayload(name, data)
}

// CollectiveStats is one rank's histogram bucket for one collective kind.
type CollectiveStats struct {
	Calls int     // completed collective calls
	Msgs  int     // point-to-point message halves inside them (sends + recvs)
	Bytes int     // payload bytes moved through this rank inside them
	Time  float64 // virtual seconds this rank spent inside them
}

// Stats summarizes one rank's virtual-time accounting after a run. The
// four time components satisfy
// Time ≈ ComputeTime + LatencyTime + BandwidthTime + WaitTime
// to floating-point roundoff.
type Stats struct {
	Rank          int
	Time          float64 // total virtual time
	CommTime      float64 // part of Time spent communicating (latency+bandwidth+wait)
	ComputeTime   float64 // part of Time from Compute/Elapse
	LatencyTime   float64 // Σ α over message halves
	BandwidthTime float64 // Σ β·bytes over message halves
	WaitTime      float64 // max-propagation idle waiting for senders

	Kernels map[string]float64 // per-kernel compute attribution
	KOrder  []string           // kernel names in first-use order

	MsgsSent  int // point-to-point messages originated
	BytesSent int // payload bytes originated
	MsgsRecv  int // point-to-point messages received
	BytesRecv int // payload bytes received

	Collectives map[string]CollectiveStats // per-collective-kind histogram (nil when the rank ran none)
	CollOrder   []string                   // collective kinds in first-use order
}

// Result aggregates per-rank stats of a completed SPMD run.
type Result struct {
	Ranks []Stats
}

// MaxTime returns the slowest rank's virtual time — the modeled parallel
// runtime of the program.
func (r *Result) MaxTime() float64 {
	var m float64
	for _, s := range r.Ranks {
		if s.Time > m {
			m = s.Time
		}
	}
	return m
}

// MakespanRank returns the rank whose virtual clock bounds the modeled
// runtime (lowest id on ties).
func (r *Result) MakespanRank() int {
	best, bt := 0, -1.0
	for _, s := range r.Ranks {
		if s.Time > bt {
			best, bt = s.Rank, s.Time
		}
	}
	return best
}

// MaxKernel returns the maximum over ranks of the time attributed to the
// named kernel (the "maximum time among processes" of Fig 5).
func (r *Result) MaxKernel(name string) float64 {
	var m float64
	for _, s := range r.Ranks {
		if v := s.Kernels[name]; v > m {
			m = v
		}
	}
	return m
}

// MaxKernels maps every kernel any rank charged to its MaxKernel time.
func (r *Result) MaxKernels() map[string]float64 {
	m := map[string]float64{}
	for _, s := range r.Ranks {
		for name, t := range s.Kernels {
			m[name] = max(m[name], t)
		}
	}
	return m
}

// CollectiveNames returns the union of collective kinds across ranks, in
// rank-0 first-use order followed by any extras.
func (r *Result) CollectiveNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range r.Ranks {
		for _, k := range s.CollOrder {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	return names
}

// Run executes body on p ranks and returns the per-rank virtual-time
// statistics. It blocks until every rank returns. Panics in rank bodies
// propagate to the caller; a deadlock or injected fault panics with the
// structured error RunE would have returned.
func Run(p int, cfg Config, body func(*Comm)) *Result {
	res, err := RunE(p, cfg, func(c *Comm) error {
		body(c)
		return nil
	})
	if err != nil {
		var re *RankError
		if errors.As(err, &re) && re.panicVal != nil {
			panic(fmt.Sprintf("dist: rank %d panicked: %v", re.Rank, re.panicVal))
		}
		panic(err)
	}
	return res
}

// RunE executes body on p ranks, where rank bodies return errors. Each
// rank runs on its own goroutine, so the call stacks of a solve (and of
// its sampled heap profiles) start at the rank, whatever the caller. It
// blocks until every rank has returned or unwound and always returns the
// per-rank statistics (partial for failed ranks, whose clocks stop at
// the failure).
//
// Failure semantics:
//   - A body error, a recovered panic, an injected crash, a typed-recv
//     mismatch or a CheckNumerics violation becomes a *RankError carrying
//     the rank, its virtual time and the failure phase.
//   - Once a rank can no longer send, peers whose blocking Recv can
//     never be satisfied unwind deterministically at that Recv instead of
//     blocking forever (their secondary errors wrap ErrAborted and are
//     not selected as the primary error).
//   - If every live rank is blocked with no matching message in flight,
//     the run fails fast with a *DeadlockError wait-for-graph report.
//
// The primary error is the failing *RankError with the smallest virtual
// time (ties broken by rank), or the *DeadlockError when no rank failed.
func RunE(p int, cfg Config, body func(*Comm) error) (*Result, error) {
	if p < 1 {
		panic("dist: need at least one rank")
	}
	w := &World{p: p, cfg: cfg}
	w.net.init(p)
	comms := make([]Comm, p)
	for i := range comms {
		alpha, beta, gamma := cfg.Alpha, cfg.Beta, cfg.Gamma
		if cfg.Fault != nil {
			commScale, compScale := cfg.Fault.scales(i)
			alpha *= commScale
			beta *= commScale
			gamma *= compScale
		}
		comms[i] = Comm{
			world: w, rank: i, tracer: cfg.Tracer,
			alpha: alpha, beta: beta, gamma: gamma,
			fault:   cfg.Fault.faultsFor(i),
			kernels: map[string]float64{},
			korder:  make([]string, 0, 8),
		}
	}
	w.wg.Add(p)
	for i := range comms {
		go comms[i].run(body)
	}
	w.wg.Wait()
	res := &Result{Ranks: make([]Stats, p)}
	for i := range comms {
		c := &comms[i]
		var colls map[string]CollectiveStats
		if len(c.colls) > 0 {
			colls = make(map[string]CollectiveStats, len(c.colls))
			for name, st := range c.colls {
				colls[name] = *st
			}
		}
		res.Ranks[i] = Stats{
			Rank: i, Time: c.clock, CommTime: c.commT,
			ComputeTime: c.compT, LatencyTime: c.latT,
			BandwidthTime: c.bwT, WaitTime: c.waitT,
			Kernels: c.kernels, KOrder: c.korder,
			MsgsSent: c.msgsOut, BytesSent: c.bytesOut,
			MsgsRecv: c.msgsIn, BytesRecv: c.bytesIn,
			Collectives: colls, CollOrder: c.collOrder,
		}
	}
	var primary *RankError
	for i := range comms {
		e := comms[i].err
		if e == nil {
			continue
		}
		if primary == nil || e.VirtualTime < primary.VirtualTime ||
			(e.VirtualTime == primary.VirtualTime && e.Rank < primary.Rank) {
			primary = e
		}
	}
	if primary != nil {
		return res, primary
	}
	if rep := w.net.stuckReport(); rep != nil {
		return res, rep
	}
	for i := range comms {
		if a := comms[i].abort; a != nil {
			return res, a
		}
	}
	return res, nil
}

// run executes body as this rank, records how it ended in c.err or
// c.abort, and marks the rank's exit on the network.
func (c *Comm) run(body func(*Comm) error) {
	defer c.world.wg.Done()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch v := r.(type) {
			case crashSignal:
				c.err = &RankError{Rank: c.rank, VirtualTime: c.clock, Phase: v.phase, Err: ErrInjectedCrash}
			case abortSignal:
				c.abort = &RankError{Rank: c.rank, VirtualTime: c.clock, Phase: c.p2pName("recv"), Err: v.err}
			case *RankError:
				c.err = v
			default:
				c.err = &RankError{Rank: c.rank, VirtualTime: c.clock, Phase: "body", Err: fmt.Errorf("panic: %v", v), panicVal: v}
			}
		}()
		if err := body(c); err != nil {
			c.err = &RankError{Rank: c.rank, VirtualTime: c.clock, Phase: "body", Err: err}
		}
	}()
	c.world.net.rankExit(c.rank, c.err != nil)
}

// RunRoot runs an SPMD solver body on p ranks and returns rank 0's
// value with the per-rank statistics. At p == 1 a body error comes back
// as the body's own error, so a one-rank world fails like a sequential
// call; a panic or an injected fault is RunE's *RankError at any p, and
// at p > 1 every failure is RunE's primary error. It is how a solver
// written once as an SPMD body serves both its sequential entry point
// and a run on many ranks.
func RunRoot[T any](p int, cfg Config, body func(*Comm) (T, error)) (T, *Result, error) {
	var root struct { // rank 0's return values
		out T
		err error
	}
	res, runErr := RunE(p, cfg, func(c *Comm) error {
		r, e := body(c)
		if c.Rank() == 0 {
			root.out, root.err = r, e
		}
		return e
	})
	if p == 1 && root.err != nil {
		return root.out, res, root.err
	}
	return root.out, res, runErr
}

// TotalMessages returns the point-to-point message count across ranks.
func (r *Result) TotalMessages() int {
	n := 0
	for _, s := range r.Ranks {
		n += s.MsgsSent
	}
	return n
}

// TotalBytes returns the payload bytes sent across ranks.
func (r *Result) TotalBytes() int {
	n := 0
	for _, s := range r.Ranks {
		n += s.BytesSent
	}
	return n
}
