package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median(samples{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v", got)
	}
	if got := median(samples{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	s := make(samples, 101)
	for i := range s {
		s[i] = float64(i)
	}
	if got := quantile(s, 0.99); got != 99 {
		t.Errorf("p99 of 0..100 = %v", got)
	}
}

// TestTopPercentile: a percentile is quoted only with at least ten
// samples beyond it.
func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.50, true},
		{48, 0.75, true},
		{100, 0.90, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{250000, 0.9999, true},
	} {
		got, ok := topPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	if v, q := tail(s); q != 0.99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 0..999 = %v at %v", v, q)
	}
}

// TestWindowMedianIgnoresStall: a 5-second stall in a 20-window series
// moves the median window by less than 5%, where it moves the mean by
// a quarter.
func TestWindowMedianIgnoresStall(t *testing.T) {
	fill := func(stall bool) *windows {
		w := newWindows(20*time.Second, time.Second)
		for msec := 0; msec < 20000; msec++ {
			if stall && msec >= 7000 && msec < 12000 {
				continue
			}
			w.add(time.Duration(msec)*time.Millisecond, 1)
		}
		return w
	}
	steady, stalled := fill(false).perSecond(), fill(true).perSecond()
	if steady != 1000 {
		t.Fatalf("steady series reads %v/s, want 1000", steady)
	}
	if math.Abs(stalled-steady)/steady >= 0.05 {
		t.Errorf("a 5 s stall moved the median window from %v to %v", steady, stalled)
	}
	sum := 0.0
	for _, c := range fill(true).counts {
		sum += c
	}
	if m := sum / 20; m != 750 {
		t.Errorf("the mean under the stall reads %v, want 750", m)
	}
	// Work that ends after the last window is dropped, not credited to it.
	w := newWindows(2*time.Second, time.Second)
	w.add(2500*time.Millisecond, 7)
	if w.counts[1] != 0 {
		t.Errorf("late work was credited to the last window: %v", w.counts)
	}
}

// TestPacerTimesFromDue: an operation is not due before its offset, and
// one issued late still gets its scheduled due time, with the lateness
// recorded.
func TestPacerTimesFromDue(t *testing.T) {
	start := time.Now().Add(-50 * time.Millisecond)
	p := pacer{start: start}
	if !p.due(10*time.Millisecond) || p.due(time.Hour) {
		t.Errorf("50 ms in, the operation at 10 ms is due and the one at 1 h is not; got %v, %v", p.due(10*time.Millisecond), p.due(time.Hour))
	}
	if due := p.issue(10 * time.Millisecond); !due.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("due time %v, want start+10ms", due.Sub(start))
	}
	if len(p.late) != 1 || p.late[0] < 39 {
		t.Errorf("an operation 40 ms overdue recorded %v ms of lateness", p.late)
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	a.ok()
	a.check(true, "unused")
	a.check(false, "first")
	a.fail("second")
	b.fail("other")
	b.ok()
	a.merge(b)
	if a.attempted != 6 || a.failed != 3 || a.firstFailure != "first" {
		t.Errorf("tally = %+v", a)
	}
}
