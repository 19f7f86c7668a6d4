package main

import "testing"

// TestSelfTimes: a span's self time is its duration minus what its
// children cover, overlaps counted once and children clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs 20 past root
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.in("x", -1, 0, func() { ran = true })
	if id := tr.begin("y", -1, 0); id != -1 || !ran {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
	tr.end(-1)
}

func TestByName(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "h", Start: 0, End: 10_000, Parent: -1},
		{Name: "k", Start: 1_000, End: 4_000, Parent: 0},
		{Name: "h", Start: 20_000, End: 40_000, Parent: -1},
	}
	by := tr.byName()
	if h := by["h"]; h.calls != 2 || h.p50Us != 15 || h.selfP50 != 13.5 {
		t.Errorf("h = %+v", h)
	}
}
