package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Times are nanoseconds since the tracer
// started. Parent is the index of the span that caused this one, -1
// for a root; spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// layerTime is what the trace says about one span name.
type layerTime struct {
	calls          int
	p50Us, selfP50 float64
}

// byName summarizes the trace per span name: call count, median
// duration and median self time, both in microseconds.
func (t *tracer) byName() map[string]layerTime {
	self := selfTimes(t.spans)
	dur, slf := map[string]samples{}, map[string]samples{}
	for i, s := range t.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[i])/1e3)
	}
	out := make(map[string]layerTime, len(dur))
	for name, d := range dur {
		out[name] = layerTime{len(d), median(d), median(slf[name])}
	}
	return out
}

// write stores the spans as bench/out/trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// budgetTable prints one per-layer table: each row a span name with
// its median self time and its share of the reference (the opaque
// handler span the rows are meant to explain).
func budgetTable(title string, by map[string]layerTime, reference string, rows []string) string {
	ref := by[reference].p50Us
	out := fmt.Sprintf("%s (reference %s = %.1f us)\n", title, reference, ref)
	for _, r := range rows {
		lt := by[r]
		share := 0.0
		if ref > 0 {
			share = lt.selfP50 / ref
		}
		out += fmt.Sprintf("  %-26s %10.1f us self  %5.1f%%  (%d calls)\n", r, lt.selfP50, 100*share, lt.calls)
	}
	return out
}
