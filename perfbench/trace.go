package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one benchmark-side call boundary: a call into one layer's
// public function, named "<layer>.<operation>". Spans nest on the single
// goroutine that drives the replay; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's prefix: the internal package it calls into.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	id    string // shared by every span of the run: workload and seed
	epoch time.Time
	spans []span
	open  []int
}

func newTracer(id string) *tracer { return &tracer{id: id, epoch: time.Now()} }

// span runs f inside a span named name, child of the innermost open one.
func (t *tracer) span(name string, f func() error) error {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	err := f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.epoch))
	return err
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfByLayer is each layer's self time: its spans' durations minus the
// parts of those intervals their child spans cover. Children run
// sequentially inside their parent, so coverage is a plain sum.
func (t *tracer) selfByLayer() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.layer()] += self[i]
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}{t.id, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
