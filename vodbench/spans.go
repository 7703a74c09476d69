package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span, and what a disabled tracer hands
// out.
const noSpan = -1

// span is one timed call across a layer boundary. Spans of one viewer
// session, or of one engine cycle, share a Trace ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// carries no branches of its own.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, trace int64, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span with the given name, in
// the given unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanTotals is one span name's aggregate: how often it ran, its total
// time and its self time.
type spanTotals struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

func totalsByName(spans []span) []spanTotals {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []spanTotals
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotals{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.dur()
		out[j].Self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// writeSpans writes every span as one JSON line, followed by the
// per-name totals, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, t := range totalsByName(spans) {
		if err := enc.Encode(map[string]spanTotals{"totals": t}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
