package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark's own code. Parent is 0
// for a root; Req ties the spans of one request (or stream event) together.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so plain runs pass nil and pay one branch per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before the
// parent's own span is complete.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// timed runs f as a span named name under parent and returns its error.
func (t *tracer) timed(parent, req int64, name string, f func() error) error {
	id := t.newID()
	start := time.Now()
	err := f()
	t.add(id, parent, req, name, start, time.Now())
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the self time of every span with one name: its duration
// minus the durations of its direct children.
type layerTime struct {
	Count int
	Self  time.Duration
	Total time.Duration
}

// selfTimes aggregates self time per span name.
func selfTimes(spans []span) map[string]layerTime {
	child := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - child[s.ID]
		out[s.Name] = lt
	}
	return out
}

// writeSpans dumps spans as JSON, ordered by start time.
func writeSpans(path string, env map[string]any, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(map[string]any{"env": env, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
