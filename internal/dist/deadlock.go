package dist

// The message network and its stuck-state detector. All mailboxes share
// one lock so the runtime can observe the global quiescent state "every
// live rank is blocked in Recv with no matching message in flight" —
// which is stable (no live rank can ever send again) and therefore a
// deadlock. Instead of hanging, the detector snapshots the wait-for
// graph, aborts every blocked rank at its blocked Recv (a deterministic
// program point), and RunE reports a *DeadlockError — or, when a rank
// failure caused the starvation, that rank's *RankError.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// WaitFor is one edge of the deadlock report: Rank was blocked receiving
// from On with the given Tag since virtual time Since.
type WaitFor struct {
	Rank  int
	On    int
	Tag   int
	Since float64
}

// DeadlockError reports the quiescent state: every live rank blocked in
// a Recv (possibly inside a collective) that no live rank will ever
// satisfy. Done lists ranks that had already finished their body; Failed
// lists ranks that died (crash, panic or body error) before the stall.
type DeadlockError struct {
	Waits  []WaitFor
	Done   []int
	Failed []int
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dist: deadlock: all %d live ranks blocked in Recv with no matching message in flight\n", len(e.Waits))
	b.WriteString("wait-for graph:\n")
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "  rank %d -> rank %d (tag %d) since t=%.6gs\n", w.Rank, w.On, w.Tag, w.Since)
	}
	if len(e.Done) > 0 {
		fmt.Fprintf(&b, "exited ranks: %v\n", e.Done)
	}
	if len(e.Failed) > 0 {
		fmt.Fprintf(&b, "failed ranks: %v\n", e.Failed)
	}
	return strings.TrimRight(b.String(), "\n")
}

// waiter is one rank's registered blocking receive.
type waiter struct {
	active bool
	woken  bool // a matching message arrived; the wake token was transferred
	src    int
	tag    int
	clock  float64
}

// network owns every rank's pending-message queue plus the liveness
// accounting the deadlock detector needs. One mutex guards it all; per-
// rank condition variables carry the wakeups. Each rank has at most one
// outstanding receive (a Comm is single-threaded), so a single waiter
// slot per rank suffices.
type network struct {
	mu      sync.Mutex
	ranks   []mailbox
	live    int
	blocked int
	stuck   bool
	report  *DeadlockError
}

// mailbox is one rank's share of the network: its wakeup, its queue,
// its waiter slot and whether its body has exited (and failed).
type mailbox struct {
	cond    sync.Cond
	pending []message
	waiter  waiter
	done    bool
	failed  bool
}

// init sizes the network for p ranks.
func (n *network) init(p int) {
	n.ranks = make([]mailbox, p)
	for i := range n.ranks {
		n.ranks[i].cond.L = &n.mu
	}
	n.live = p
}

// put delivers a message to dst's queue. If dst is blocked on a matching
// (src, tag) the wake token is transferred under the same lock, so a
// rank with a deliverable message is never counted as blocked.
func (n *network) put(dst int, m message) {
	n.mu.Lock()
	mb := &n.ranks[dst]
	mb.pending = append(mb.pending, m)
	w := &mb.waiter
	if w.active && !w.woken && w.src == m.src && w.tag == m.tag {
		w.woken = true
		n.blocked--
		mb.cond.Signal()
	}
	n.mu.Unlock()
}

// take pops the first pending message for (src, tag), if any.
func (n *network) take(rank, src, tag int) (message, bool) {
	mb := &n.ranks[rank]
	for i, m := range mb.pending {
		if m.src == src && m.tag == tag {
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// get blocks rank until a message from src with the given tag is
// available and returns it. If the run reaches the quiescent stuck state
// the call panics with an abortSignal instead of blocking forever.
func (n *network) get(rank, src, tag int, clock float64) message {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if m, ok := n.take(rank, src, tag); ok {
			return m
		}
		if n.stuck {
			panic(abortSignal{err: fmt.Errorf("%w: rank %d blocked receiving from rank %d (tag %d)", ErrAborted, rank, src, tag)})
		}
		mb := &n.ranks[rank]
		w := &mb.waiter
		w.active, w.woken, w.src, w.tag, w.clock = true, false, src, tag, clock
		n.blocked++
		if n.blocked == n.live {
			n.declareStuckLocked()
		}
		for !w.woken && !n.stuck {
			mb.cond.Wait()
		}
		w.active = false
		if !w.woken {
			// Stuck: this rank's blocked count was not consumed by a
			// wake token; release it and unwind.
			n.blocked--
			panic(abortSignal{err: fmt.Errorf("%w: rank %d blocked receiving from rank %d (tag %d)", ErrAborted, rank, src, tag)})
		}
		// Token consumed: the matching message is pending; loop to take it.
	}
}

// rankExit records a body completion or death. A rank that can no longer
// send may starve the remaining blocked ranks, so the stuck condition is
// re-checked here too.
func (n *network) rankExit(rank int, failed bool) {
	n.mu.Lock()
	n.ranks[rank].done = true
	n.ranks[rank].failed = failed
	n.live--
	if n.live > 0 && n.blocked == n.live && !n.stuck {
		n.declareStuckLocked()
	}
	n.mu.Unlock()
}

// declareStuckLocked snapshots the wait-for graph, marks the network
// stuck and wakes every blocked rank so it can unwind. Caller holds mu.
func (n *network) declareStuckLocked() {
	rep := &DeadlockError{}
	for r := range n.ranks {
		mb := &n.ranks[r]
		switch {
		case mb.done && mb.failed:
			rep.Failed = append(rep.Failed, r)
		case mb.done:
			rep.Done = append(rep.Done, r)
		case mb.waiter.active && !mb.waiter.woken:
			w := mb.waiter
			rep.Waits = append(rep.Waits, WaitFor{Rank: r, On: w.src, Tag: w.tag, Since: w.clock})
		}
	}
	sort.Slice(rep.Waits, func(i, j int) bool { return rep.Waits[i].Rank < rep.Waits[j].Rank })
	n.report = rep
	n.stuck = true
	for r := range n.ranks {
		n.ranks[r].cond.Broadcast()
	}
}

// stuckReport returns the deadlock report, if the run got stuck.
func (n *network) stuckReport() *DeadlockError {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.report
}
