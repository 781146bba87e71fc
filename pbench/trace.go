package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or pipeline
// run share Req; Parent names the enclosing span.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so untraced runs pay one branch per span.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) add(name, parent string, req int64, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// mean returns the mean duration of the spans called name, 0 if none.
func (t *tracer) mean(name string) time.Duration {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
