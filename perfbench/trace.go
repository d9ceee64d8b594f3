package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one job share its Job ID; Parent links a call to the request
// that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) start(name, job string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	return openSpan{t: t, start: now, s: span{ID: id, Parent: parent, Name: name, Job: job, Start: now.Sub(t.t0).Nanoseconds()}}
}

// id is the span's identifier for use as a child's parent (0 untraced).
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = o.s.Start + time.Since(o.start).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanSummary is one span name's count, median duration and median self
// time (duration minus the part its child spans cover).
type spanSummary struct {
	Name      string
	Count     int
	P50Ms     float64
	SelfP50Ms float64
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64) // parent ID → summed child duration
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(child[s.ID])/1e6)
	}
	out := make([]spanSummary, 0, len(durs))
	for name, d := range durs {
		out = append(out, spanSummary{Name: name, Count: len(d), P50Ms: percentile(d, 0.5), SelfP50Ms: percentile(selfs[name], 0.5)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
