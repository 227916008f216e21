package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvCompute is a Compute/Elapse span.
	EvCompute EventKind = iota
	// EvSend is the sender half of a point-to-point message.
	EvSend
	// EvRecv is the receiver half of a point-to-point message.
	EvRecv
	// EvCollective is an outermost collective call (its constituent
	// sends/recvs are emitted too, named after the collective).
	EvCollective
	// EvMark is a zero-duration annotation (Comm.Annotate).
	EvMark
)

// String names the kind for reports and trace categories.
func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvCollective:
		return "collective"
	case EvMark:
		return "mark"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one span (or instant, for EvMark) on a rank's virtual
// timeline. Span events on one rank are contiguous: each Start equals
// the previous End, and the first Start is 0.
type Event struct {
	Rank  int
	Kind  EventKind
	Name  string  // kernel, collective kind, "send"/"recv", or marker text
	Start float64 // virtual seconds
	End   float64

	Bytes int     // payload bytes (comm events)
	Flops float64 // flop count (EvCompute via Compute)

	Peer int // other rank for EvSend/EvRecv; -1 otherwise
	Tag  int // message tag (EvSend/EvRecv)
	Seq  int // per-(peer, tag) message ordinal, matching across the two halves

	// EvRecv only.
	SrcStart float64 // sender clock when the matching send began
	Waited   float64 // idle time spent before the message was in flight
}

// Duration returns the span length in virtual seconds.
func (e Event) Duration() float64 { return e.End - e.Start }

// Tracer receives events from all ranks of a running SPMD program.
// Implementations must be safe for concurrent use: rank goroutines call
// TraceEvent concurrently, though each rank's own events arrive in
// timeline order.
type Tracer interface {
	TraceEvent(e Event)
}

// Trace is the built-in Tracer: it records events per rank. Per-rank
// event order is the rank's deterministic program order, so two runs of
// the same deterministic program yield equal traces.
type Trace struct {
	mu      sync.Mutex
	perRank map[int][]Event
}

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return &Trace{perRank: map[int][]Event{}} }

// TraceEvent implements Tracer.
func (t *Trace) TraceEvent(e Event) {
	t.mu.Lock()
	t.perRank[e.Rank] = append(t.perRank[e.Rank], e)
	t.mu.Unlock()
}

// Ranks returns the rank ids that recorded at least one event, ascending.
func (t *Trace) Ranks() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ranks := make([]int, 0, len(t.perRank))
	for r := range t.perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// Events returns rank's events in timeline order. The returned slice is
// shared with the Trace; callers must not mutate it.
func (t *Trace) Events(rank int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perRank[rank]
}

// Len returns the total recorded event count.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, evs := range t.perRank {
		n += len(evs)
	}
	return n
}

// spans returns rank's clock-advancing events (marks and zero-width
// collective wrappers excluded — collective time is already covered by
// the constituent send/recv/compute spans).
func (t *Trace) spans(rank int) []Event {
	var out []Event
	for _, e := range t.Events(rank) {
		if e.Kind == EvMark || e.Kind == EvCollective {
			continue
		}
		out = append(out, e)
	}
	return out
}

// chromeEvent is one trace_event entry; see the Trace Event Format spec
// (docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   int                    `json:"id,omitempty"`
	S    string                 `json:"s,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded events as Chrome trace_event JSON
// (object format, "X" complete events plus "s"/"f" flow arrows for every
// message edge). The file loads directly in chrome://tracing and in
// Perfetto (ui.perfetto.dev → "Open trace file"). Timestamps are the
// virtual clock in microseconds; one thread row per rank.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	const us = 1e6 // virtual seconds → trace microseconds
	ct := chromeTrace{DisplayTimeUnit: "ms"}
	meta := func(name string, tid int, arg string) {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: name, Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]interface{}{"name": arg},
		})
	}
	meta("process_name", 0, "dist virtual ranks")
	ranks := t.Ranks()
	for _, r := range ranks {
		meta("thread_name", r, fmt.Sprintf("rank %d", r))
	}
	flowID := 0
	for _, r := range ranks {
		for _, e := range t.Events(r) {
			switch e.Kind {
			case EvMark:
				ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
					Name: e.Name, Cat: e.Kind.String(), Ph: "i",
					Ts: e.Start * us, Pid: 0, Tid: r, S: "t",
				})
			default:
				dur := e.Duration() * us
				args := map[string]interface{}{}
				if e.Bytes > 0 {
					args["bytes"] = e.Bytes
				}
				if e.Flops > 0 {
					args["flops"] = e.Flops
				}
				if e.Kind == EvSend || e.Kind == EvRecv {
					args["peer"] = e.Peer
					args["tag"] = e.Tag
					args["seq"] = e.Seq
				}
				if e.Kind == EvRecv && e.Waited > 0 {
					args["waited_us"] = e.Waited * us
				}
				ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
					Name: e.Name, Cat: e.Kind.String(), Ph: "X",
					Ts: e.Start * us, Dur: &dur, Pid: 0, Tid: r, Args: args,
				})
				if e.Kind == EvRecv && e.Peer >= 0 {
					// Flow arrow from the matching send's start to the
					// receive's completion.
					flowID++
					ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
						Name: "msg", Cat: "flow", Ph: "s",
						Ts: e.SrcStart * us, Pid: 0, Tid: e.Peer, ID: flowID,
					}, chromeEvent{
						Name: "msg", Cat: "flow", Ph: "f", BP: "e",
						Ts: e.End * us, Pid: 0, Tid: r, ID: flowID,
					})
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// CPStep is one segment of the critical path. Segments are disjoint and
// ordered by time; their durations sum to the makespan (up to roundoff).
type CPStep struct {
	Name  string
	Start float64
	End   float64
}

// CriticalPath explains the virtual makespan: the chain of compute spans
// and message transfers that bounds the slowest rank's final clock,
// found by walking the recorded message edges backwards from that rank.
type CriticalPath struct {
	MakespanRank int     // the rank whose clock bounds the run
	Makespan     float64 // its final virtual clock
	Steps        []CPStep
	ByName       map[string]float64 // path time per event name
	Switches     int                // rank changes along the path
}

// CriticalPath walks the trace backwards from the slowest rank. At each
// receive that actually waited on its sender (max-propagation bound),
// the walk jumps to the sender's timeline at the moment the message
// left; otherwise it steps to the rank's previous event. Requires a
// complete trace of the run.
func (t *Trace) CriticalPath() *CriticalPath {
	cp := &CriticalPath{MakespanRank: -1, ByName: map[string]float64{}}
	spans := map[int][]Event{}
	for _, r := range t.Ranks() {
		s := t.spans(r)
		spans[r] = s
		if n := len(s); n > 0 && s[n-1].End > cp.Makespan {
			cp.Makespan = s[n-1].End
			cp.MakespanRank = r
		}
	}
	if cp.MakespanRank < 0 {
		return cp
	}
	const eps = 1e-12
	rank := cp.MakespanRank
	idx := len(spans[rank]) - 1
	prevRank := rank
	for idx >= 0 {
		e := spans[rank][idx]
		step := CPStep{Name: e.Name, Start: e.Start, End: e.End}
		if e.Kind == EvRecv && e.Waited > 0 && e.Peer >= 0 {
			// The receive was bounded by the sender: the path segment is
			// the transfer itself, and the walk continues on the sender's
			// timeline up to the moment the send began.
			step.Start = e.SrcStart
			cp.Steps = append(cp.Steps, step)
			rank = e.Peer
			idx = lastEndingBy(spans[rank], e.SrcStart+eps)
		} else {
			cp.Steps = append(cp.Steps, step)
			idx--
		}
		if rank != prevRank {
			cp.Switches++
			prevRank = rank
		}
	}
	// Reverse into time order and aggregate.
	for i, j := 0, len(cp.Steps)-1; i < j; i, j = i+1, j-1 {
		cp.Steps[i], cp.Steps[j] = cp.Steps[j], cp.Steps[i]
	}
	for _, s := range cp.Steps {
		d := s.End - s.Start
		cp.ByName[s.Name] += d
	}
	return cp
}

// lastEndingBy returns the index of the last event with End ≤ limit, or
// -1. Events are in timeline order, so binary search applies.
func lastEndingBy(evs []Event, limit float64) int {
	lo, hi := 0, len(evs) // invariant: evs[:lo] qualify, evs[hi:] don't
	for lo < hi {
		mid := (lo + hi) / 2
		if evs[mid].End <= limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Report renders a human-readable critical-path summary: the bounding
// rank, the path's composition by event name (descending), and how often
// the path hops between ranks.
func (cp *CriticalPath) Report() string {
	var b strings.Builder
	if cp.MakespanRank < 0 {
		b.WriteString("critical path: empty trace\n")
		return b.String()
	}
	fmt.Fprintf(&b, "critical path: makespan %.6g s bounded by rank %d (%d steps, %d rank switches)\n",
		cp.Makespan, cp.MakespanRank, len(cp.Steps), cp.Switches)
	names := make([]string, 0, len(cp.ByName))
	for n := range cp.ByName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if cp.ByName[names[i]] != cp.ByName[names[j]] {
			return cp.ByName[names[i]] > cp.ByName[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		d := cp.ByName[n]
		fmt.Fprintf(&b, "  %6.2f%%  %-16s %.6g s\n", 100*d/cp.Makespan, n, d)
	}
	return b.String()
}
