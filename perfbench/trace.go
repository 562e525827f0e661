package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark op share Op
// (-1 for calls made by the per-layer probes outside the op stream).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"` // 0 for a root span
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active is an open span; end closes and records it.
type active struct {
	t *tracer
	s span
}

// start opens a span named name under parent (nil for a root span) for op.
func (t *tracer) start(name string, parent *active, op int64) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, s: span{ID: t.next.Add(1), Name: name, Op: op, Start: time.Since(t.origin)}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	return a
}

// startAt is start with an explicit start instant (open-loop requests are
// timed from when they were due, not from when they were sent).
func (t *tracer) startAt(name string, parent *active, op int64, at time.Time) *active {
	a := t.start(name, parent, op)
	if a != nil {
		a.s.Start = at.Sub(t.origin)
	}
	return a
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = time.Since(a.t.origin)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return a.s.End - a.s.Start
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time its children cover
}

// MeanMS is the mean span duration.
func (s spanStats) MeanMS() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalMS / float64(s.Count)
}

// summary aggregates the recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals (children may run in
// parallel and overlap).
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMS += ms(d)
		st.SelfMS += ms(d - covered(s, children[s.ID]))
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores every span plus the per-name summary as one JSON file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Summary map[string]spanStats `json:"summary"`
		Spans   []span               `json:"spans"`
	}{t.summary(), spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
