package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request id, -1 outside the load phase
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin(name string, parent int, req int64) (int, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(now.Sub(t.epoch)), Parent: parent, Req: req})
	return id, now
}

// end closes span id and returns its duration since start.
func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	if t != nil && id > 0 {
		t.mu.Lock()
		t.spans[id-1].End = int64(now.Sub(t.epoch))
		t.mu.Unlock()
	}
	return now.Sub(start)
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	id, start := t.begin(name, parent, -1)
	err := f()
	return t.end(id, start), err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
