package main

import (
	"math"
	"sort"
	"time"
)

// samples is one latency series in milliseconds.
type samples []float64

func (s samples) sorted() samples {
	cp := append(samples(nil), s...)
	sort.Float64s(cp)
	return cp
}

// quantile reads the q-quantile of an ascending series by linear
// interpolation between closest ranks; 0 for an empty series.
func quantile(sorted samples, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(s samples) float64 { return quantile(s.sorted(), 0.5) }

// tailPercentiles are the percentiles a report may quote, ascending.
var tailPercentiles = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999}

// topPercentile returns the highest quotable percentile that still has
// at least ten of the n samples beyond it: past that a "percentile" is
// a handful of outliers. ok is false when even the median has fewer.
func topPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		// 1-0.9 is a hair under 0.1 in floating point; the slack keeps
		// the hundredth sample from going missing.
		if float64(n)*(1-p) >= 10-1e-9 {
			q, ok = p, true
		}
	}
	return q, ok
}

// tail returns the value at the series' top quotable percentile, and
// the percentile itself; both 0 when the series is too short.
func tail(s samples) (value, q float64) {
	q, ok := topPercentile(len(s))
	if !ok {
		return 0, 0
	}
	return quantile(s.sorted(), q), q
}

// windows counts completed work in fixed wall-clock windows, so that
// throughput can be reported as the median window: a stall empties a
// few windows and leaves the median where it was, where the mean over
// the whole run would move with every stall.
type windows struct {
	width  time.Duration
	counts []float64
}

func newWindows(total, width time.Duration) *windows {
	return &windows{width: width, counts: make([]float64, int(total/width))}
}

// add credits n units of work completed at offset since the start.
// Work that completes after the last full window is not counted.
func (w *windows) add(offset time.Duration, n int) {
	if i := int(offset / w.width); i >= 0 && i < len(w.counts) {
		w.counts[i] += float64(n)
	}
}

// merge adds another series of the same shape into w.
func (w *windows) merge(o *windows) {
	for i := range w.counts {
		w.counts[i] += o.counts[i]
	}
}

// perSecond is the median window's rate.
func (w *windows) perSecond() float64 {
	return median(w.counts) / w.width.Seconds()
}

// tally is a workload's failure accounting: every operation attempted
// and every one that failed — a non-2xx answer, a client timeout, or a
// correctness check that did not hold.
type tally struct {
	attempted, failed int
	// firstFailure keeps one message so a failing run says why.
	firstFailure string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(msg string) {
	t.attempted++
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = msg
	}
}

// check counts one correctness check.
func (t *tally) check(pass bool, msg string) {
	if pass {
		t.ok()
	} else {
		t.fail(msg)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// pacer times an open loop: an operation is due at start plus its
// offset whatever happened to the ones before it, so a stall shows up
// as latency on every operation it delays instead of silently lowering
// the offered rate.
type pacer struct {
	start time.Time
	// late records how far behind its due time each operation was
	// actually issued, in milliseconds: the generator's own lateness.
	late samples
}

// due reports whether the operation scheduled at offset may be issued
// yet. The caller does other work until it is: a generator that slept
// would hand the CPU back, and one that spun would bill its own CPU to
// the system it shares two cores with.
func (p *pacer) due(offset time.Duration) bool { return time.Since(p.start) >= offset }

// issue records how late the operation scheduled at offset is being
// issued and returns its due time, which the caller times it from, so
// the lateness is counted in the latency.
func (p *pacer) issue(offset time.Duration) time.Time {
	due := p.start.Add(offset)
	p.late = append(p.late, ms(time.Since(due)))
	return due
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
