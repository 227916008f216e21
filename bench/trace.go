package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer
// and keeps them in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

// span is one traced interval. Parent is the id of the span that caused
// it (0 for the root); TID is the Chrome-trace lane (the client of a
// serve request, 0 otherwise).
type span struct {
	id, parent int
	tid        int
	name       string
	start, end time.Duration
	args       map[string]any
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, tid int, args map[string]any) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, tid: tid, name: name, start: now, end: -1, args: args})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// record adds a finished span that began at start; serve requests use it
// because their class and outcome are known only at the end.
func (t *tracer) record(name string, parent, tid int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	s := start.Sub(t.start)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, tid: tid, name: name, start: s, end: s + d, args: args})
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace_event JSON at path; the span and
// parent ids travel in each event's args.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			return fmt.Errorf("bench: span %q (%d) never ended", s.name, s.id)
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.tid, Args: args,
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
