package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	id := t.open()
	t.close(id, trace, parent, name, start, end)
	return id
}

// open reserves the ID of a span whose children are recorded before it ends;
// close then stores it.
func (t *tracer) open() int {
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

func (t *tracer) close(id, trace, parent int, name string, start, end time.Time) {
	t.spans[id-1] = span{
		ID: id, Trace: trace, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	}
}

// run times f as a span.
func (t *tracer) run(trace, parent int, name string, f func()) int {
	start := time.Now()
	f()
	return t.record(trace, parent, name, start, time.Now())
}

// selfTimes returns, per span ID, the span's duration minus the durations of
// its direct children. Replayed stages run after the call they explain, so
// children are found by Parent, not by interval containment.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.duration()
		if s.Parent != 0 {
			self[s.Parent] -= s.duration()
		}
	}
	return self
}

// spanStats holds, for the spans of one name, each span's duration and self
// time in nanoseconds: sums for the shares, medians for the typical span (a
// mean would let one garbage collection speak for a thousand spans).
type spanStats struct {
	durations, selfs []float64
}

func (a spanStats) medianUs() float64     { return median(a.durations) / 1e3 }
func (a spanStats) medianSelfUs() float64 { return median(a.selfs) / 1e3 }

func statsByName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := map[string]spanStats{}
	for _, s := range spans {
		a := out[s.Name]
		a.durations = append(a.durations, float64(s.duration()))
		a.selfs = append(a.selfs, float64(self[s.ID]))
		out[s.Name] = a
	}
	return out
}

// writeJSONFile writes v as compact JSON to dir/name.
func writeJSONFile(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
