package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around its own calls. Parent is the ID of the enclosing span
// (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same calls without the
// bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the suite
// runner reports each experiment's wall time after it finishes).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// selfSeconds is a span's duration minus the part of its interval that its
// child spans cover (overlapping children, as from parallel captures, are
// counted once).
func selfSeconds(spans []span, id int) float64 {
	var parent span
	var kids [][2]int64
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
		if s.Parent == id {
			kids = append(kids, [2]int64{s.StartNS, s.EndNS})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, hi int64 = 0, parent.StartNS
	for _, k := range kids {
		lo, e := max(k[0], hi, parent.StartNS), min(k[1], parent.EndNS)
		if e > lo {
			covered += e - lo
		}
		hi = max(hi, e)
	}
	return float64(parent.EndNS-parent.StartNS-covered) / 1e9
}
