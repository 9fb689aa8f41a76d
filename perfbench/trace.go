package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one timed call across a layer boundary. Spans of one serve
// request share Req; pipeline spans carry Req 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (used for serve requests, whose start
// is their due time rather than the moment the generator got to them).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	id := t.begin(name, parent, 0)
	err := fn(id)
	t.end(id)
	return err
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children of one parent may overlap
// (concurrent serve requests), so coverage is the union of their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unionWithin is the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as one JSON document.
func writeSpans(w io.Writer, spans []span) error {
	if err := json.NewEncoder(w).Encode(spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
