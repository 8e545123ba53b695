package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans of
// one workflow share its id; Parent is the id of the span that made the
// call (0 for a root).
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Workflow string        `json:"workflow"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

// tracer keeps the replay's spans in memory; they are written out once,
// when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, workflow string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workflow: workflow, Start: time.Since(t.t0),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0) }

// call wraps f in a span.
func (t *tracer) call(name, workflow string, parent int, f func()) {
	id := t.start(name, workflow, parent)
	f()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once, and a child running past its parent is clipped).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// byName collects the durations (self time when self is set) of every
// span with the given name, in milliseconds.
func byName(spans []span, self map[int]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, ms(d))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
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
