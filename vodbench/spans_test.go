package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},   // overlaps a: 10..50 counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},  // sticks out of root: only 90..100 counts
		{ID: 4, Parent: 1, Name: "a.1", Start: 15, End: 20}, // grandchild: charged to a, not root
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 30 - 5, 20, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTotalsByNameSumsCountsAndSelf(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "cycle", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "step", Start: 0, End: 6},
		{ID: 2, Parent: noSpan, Name: "cycle", Start: 10, End: 30},
		{ID: 3, Parent: 2, Name: "step", Start: 12, End: 20},
	}
	got := map[string]spanTotals{}
	for _, tot := range totalsByName(spans) {
		got[tot.Name] = tot
	}
	if c := got["cycle"]; c.Count != 2 || c.Total != 30 || c.Self != 16 {
		t.Errorf("cycle totals %+v, want count 2, total 30, self 16", c)
	}
	if s := got["step"]; s.Count != 2 || s.Total != 14 || s.Self != 14 {
		t.Errorf("step totals %+v, want count 2, total 14, self 14", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, noSpan)
	tr.end(id)
	if id != noSpan || tr.snapshot() != nil {
		t.Fatalf("nil tracer returned id %d and spans %v", id, tr.snapshot())
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("session", 7, noSpan)
	child := tr.begin("dial", 7, root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Trace != 7 {
		t.Fatalf("spans %+v, want a dial child of the session root in trace 7", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child %+v not inside root %+v", spans[1], spans[0])
	}
}
