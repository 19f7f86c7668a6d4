package retry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	// EpochHeader carries the serving instance's epoch on both
	// replication feeds; followers echo it as the `epoch` parameter.
	EpochHeader = "X-Reform-Epoch"
	// MaxBackoff caps a Follower's exponential backoff.
	MaxBackoff = 30 * time.Second
	// maxRecord bounds one replication record read from upstream.
	maxRecord = 1 << 28
)

// Follower is one replica's long-poll loop over a replication feed of
// records of type R. The feed is given by Path, Position, Decode and
// Apply; the rest says where to poll and where to report.
type Follower[R any] struct {
	// Path is the feed's watch endpoint, e.g. "/v1/view/watch".
	Path string
	// Position returns the replica's place in the feed as query
	// parameters. It is asked only while the upstream's epoch is
	// known; otherwise the poll carries no position and the upstream
	// answers with a full record.
	Position func() url.Values
	// Decode parses one record and Apply applies it. An error from
	// either drops the position, so the next poll resynchronizes.
	Decode func([]byte) (R, error)
	Apply  func(R) error

	// Upstreams is the rotation list, Poll the long-poll timeout asked
	// of them and Retry the backoff base. A nil Client means one whose
	// deadline outlives Poll by 10s.
	Upstreams   []string
	Poll, Retry time.Duration
	Client      *http.Client
	// Errors counts failed polls and rejected records; Current holds
	// the upstream that last answered (a string); Logf gets each
	// failure, prefixed with Name.
	Errors  *atomic.Int64
	Current *atomic.Value
	Name    string
	Logf    func(format string, args ...any)
}

// Run follows the feed until ctx ends. Each poll echoes the upstream's
// epoch with the replica's position; a 200 is applied, a 204 (quiet
// timeout) polls again. A failed poll backs off (capped exponential
// with jitter, honoring the upstream's Retry-After) and rotates to the
// next upstream, whose history is another instance's, so the position
// resets with the epoch. Any answered poll resets the backoff.
func (f *Follower[R]) Run(ctx context.Context) {
	client := f.Client
	if client == nil {
		client = &http.Client{Timeout: f.Poll + 10*time.Second}
	}
	bo := NewBackoff(f.Retry, MaxBackoff, AutoSeed())
	ui := 0
	// epoch is the followed upstream's epoch as last observed; ""
	// means unpositioned.
	epoch := ""
	for ctx.Err() == nil {
		upstream := f.Upstreams[ui]
		body, newEpoch, hint, err := f.poll(ctx, client, upstream, epoch)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.Errors.Add(1)
			f.Logf("%s: %s: %v", f.Name, upstream, err)
			ui = (ui + 1) % len(f.Upstreams)
			epoch = ""
			sleep(ctx, bo.Next(hint))
			continue
		}
		bo.Reset()
		f.Current.Store(upstream)
		if epoch != "" && newEpoch != epoch {
			// The upstream restarted; it answers the stale epoch with a
			// full record.
			f.Logf("%s: upstream %s restarted (epoch %s -> %s); full resync", f.Name, upstream, epoch, newEpoch)
		}
		epoch = newEpoch
		if body == nil {
			continue
		}
		rec, err := f.Decode(body)
		if err == nil {
			err = f.Apply(rec)
		}
		if err != nil {
			f.Errors.Add(1)
			f.Logf("%s: %s: %v (forcing full resync)", f.Name, upstream, err)
			epoch = ""
			sleep(ctx, bo.Next(0))
		}
	}
}

// poll issues one long-poll against upstream. It returns the body on
// 200, nil on 204, and an error otherwise, with any
// Retry-After hint the upstream sent.
func (f *Follower[R]) poll(ctx context.Context, client *http.Client, upstream, epoch string) (body []byte, newEpoch string, hint time.Duration, err error) {
	u := upstream + f.Path + "?timeout_ms=" + strconv.FormatInt(f.Poll.Milliseconds(), 10)
	if epoch != "" {
		u += "&epoch=" + epoch
		if pos := f.Position().Encode(); pos != "" {
			u += "&" + pos
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, resp.Header.Get(EpochHeader), 0, nil
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxRecord))
		if err != nil {
			return nil, "", 0, err
		}
		return body, resp.Header.Get(EpochHeader), 0, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, "", Hint(resp), fmt.Errorf("%s: upstream %d: %s", f.Path, resp.StatusCode, msg)
	}
}

// sleep waits d, waking early when ctx ends.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
