package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer started; Parent is the enclosing span's
// ID (0 for a root) and Req groups the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// spanEvery is the request sampling stride: the spans of every
// spanEvery-th request are kept whole, so the written file covers the
// whole run at a bounded size. Every span is still timed; only storage is
// sampled. The stride is odd so that workloads alternating two kinds of
// request keep both kinds.
const spanEvery = 7

// tracer keeps sampled spans in memory and writes them when the run ends.
// Spans are recorded from the benchmark's side of each call into a layer.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	ended atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	id, parent, req, start int64
	name                   string
}

// request allocates a request ID.
func (t *tracer) request() int64 { return t.reqs.Add(1) }

// begin opens a span under parent (0 for a root) in request req.
func (t *tracer) begin(name string, parent, req int64) spanRef {
	return spanRef{id: t.ids.Add(1), parent: parent, req: req, start: int64(time.Since(t.t0)), name: name}
}

// beginAt opens a span that started at t, such as a queue wait that
// began at a query's due time.
func (t *tracer) beginAt(name string, parent, req int64, at time.Time) spanRef {
	return spanRef{id: t.ids.Add(1), parent: parent, req: req, start: int64(at.Sub(t.t0)), name: name}
}

// end closes s, keeps it if its request is sampled and returns its
// duration.
func (t *tracer) end(s spanRef) time.Duration {
	e := int64(time.Since(t.t0))
	t.ended.Add(1)
	if s.req%spanEvery == 0 {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: s.id, Name: s.name, Start: s.start, End: e, Parent: s.parent, Req: s.req})
		t.mu.Unlock()
	}
	return time.Duration(e - s.start)
}

// mark records a zero-length event span, such as a cloud batch dispatch,
// as a request of its own.
func (t *tracer) mark(name string) {
	s := t.begin(name, 0, t.request())
	t.end(s)
}

// write stores the kept spans, the count of all spans timed and the host
// description as one JSON file.
func (t *tracer) write(path string, host map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"host": host, "spans_timed": t.ended.Load(), "request_stride": spanEvery, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
