// Package retry is the shared reconnect policy and follow loop of the
// replication followers. Follower long-polls one feed — the
// query-router tier follows /v1/view/watch, serve-tier followers
// follow /v1/replog/watch — and owns everything the two have in
// common: upstream rotation, the epoch echo, the poll itself and the
// sleep between failures. Backoff spaces those failures out with
// capped exponential growth and full jitter, so N replicas whose
// upstream restarts do not retry in lock step against the recovering
// process; an upstream Retry-After hint overrides it, and any answered
// poll resets it.
package retry

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Backoff produces successive retry delays. The zero value is unusable;
// call NewBackoff. A Backoff is safe for use from one goroutine (the
// sync loop that owns it).
type Backoff struct {
	// base is the first retry's upper bound; max caps the growth.
	base, max time.Duration
	// cur is the current exponential ceiling.
	cur time.Duration
	rng *rand.Rand
}

// NewBackoff builds a policy growing from base to max. Non-positive
// arguments fall back to 250ms and 30s; max below base is raised to
// base. seed fixes the jitter stream (tests); pass 0 for a
// time-derived seed.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if max < base {
		max = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{base: base, max: max, cur: base, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay before the next retry and advances the
// exponential ceiling. The delay is jittered over [cur/2, cur) — two
// replicas failing at the same instant almost surely pick different
// delays — and cur doubles up to the cap. When the upstream supplied a
// Retry-After hint, the hint wins when it is longer than the jittered
// delay: the server knows its own recovery schedule better than we do.
func (b *Backoff) Next(hint time.Duration) time.Duration {
	d := b.cur/2 + time.Duration(b.rng.Int63n(int64(b.cur/2)+1))
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	if hint > d {
		d = hint
	}
	return d
}

// Reset restores the ceiling to base; call it after any successful
// exchange so a healthy upstream is re-polled promptly after a blip.
func (b *Backoff) Reset() { b.cur = b.base }

// Current exposes the present ceiling (tests assert growth and cap).
func (b *Backoff) Current() time.Duration { return b.cur }

// Hint extracts a Retry-After hint from an HTTP response: the header's
// delay-seconds form, or 0 when absent or unparseable (the HTTP-date
// form is not worth the dependency for a retry hint).
func Hint(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// seedCounter desynchronizes concurrent zero-seed callers created
// within one clock tick (a fleet of replicas booting together).
var (
	seedMu      sync.Mutex
	seedCounter int64
)

// AutoSeed returns a process-unique seed: wall clock plus a counter,
// so replicas constructed in the same nanosecond still jitter apart.
func AutoSeed() int64 {
	seedMu.Lock()
	defer seedMu.Unlock()
	seedCounter++
	return time.Now().UnixNano() + seedCounter<<32
}
