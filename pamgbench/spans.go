package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented for this).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; they are written
// out once, when the run ends. Safe for concurrent use, since distributed
// stages are replayed on several goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// time runs fn inside a span and returns the span's duration.
func (r *recorder) time(name string, parent, op int, fn func()) float64 {
	id := r.begin(name, parent, op)
	fn()
	return r.end(id)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write emits the spans as one JSON array.
func (r *recorder) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.snapshot())
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children running concurrently
// (replayed rank workers) overlap, so their union is subtracted, clipped
// to the parent's interval.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	curA, curB := -1.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}
