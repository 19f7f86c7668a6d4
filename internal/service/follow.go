package service

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/replog"
	"repro/internal/retry"
)

// This file is the follower side of the replication log: it follows
// an upstream's GET /v1/replog/watch through retry.Follower, the
// long-poll loop every replica shares (a router follows the view feed
// through the same loop), installs snapshot records wholesale after
// the checks a snapshot file passes (installCatchUp), and replays entry
// records one at a time through the leader's own transition methods
// (applyEntryLocked), publishing a fresh read view after each — one
// view per mutation, the leader's cadence. A divergence or rejected
// record drops the position, forcing the next poll to resynchronize
// with a snapshot.

// followLoop runs until shutdown or promotion (Promote cancels ctx
// before it takes the lead). upstreams is the rotation list from
// Config.Join; the position is the local log's last index.
func (s *Server) followLoop(ctx context.Context, upstreams []string) {
	defer s.wg.Done()
	defer close(s.followDone)
	f := retry.Follower[replog.Record]{
		Path: "/v1/replog/watch",
		Position: func() url.Values {
			return url.Values{"from": {strconv.FormatUint(s.replLog.LastIndex(), 10)}}
		},
		Decode:    replog.DecodeRecord,
		Apply:     s.applyReplogRecord,
		Upstreams: upstreams,
		// Well under the server's watchMaxTimeout clamp.
		Poll:    watchDefaultTimeout,
		Retry:   time.Second,
		Errors:  &s.replErrors,
		Current: &s.leaderURL,
		Name:    "follow",
		Logf:    s.cfg.Logf,
	}
	f.Run(ctx)
}

// applyReplogRecord installs one decoded wire record.
func (s *Server) applyReplogRecord(rec replog.Record) error {
	switch rec.Kind {
	case replog.RecSnapshot:
		return s.installCatchUp(rec.Snapshot)
	case replog.RecEntries:
		for _, e := range rec.Entries {
			unlock := s.lockMutation()
			err := s.applyEntryLocked(e)
			unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("service: replication record of unknown kind %d", rec.Kind)
}
