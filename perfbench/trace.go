package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, the operation (trace) it
// belongs to, the span that caused it, and its interval in nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing and reads no clock, which is how the
// benchmark runs the same replay untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index (-1 on a nil tracer).
func (t *tracer) open(name string, trace, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.Dur = int64(time.Since(t.t0)) - s.Start
}

// totals sums each span name's duration and self time (its duration minus
// the part its child spans cover).
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.Dur)
		self[s.Name] += time.Duration(s.Dur)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.Dur)
		}
	}
	return total, self
}

// durations returns the duration of every span with the given name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e6)
		}
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
