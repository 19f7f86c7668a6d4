package service

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/replog"
	"repro/internal/retry"
	"repro/internal/workload"
)

// This file is the serve tier's replication layer: the leader side of
// the mutation log (every join, leave, maintenance-step grant batch,
// compaction and period boundary becomes a replog entry, appended
// under the same mutation-lock hold as the mutation itself), the
// GET /v1/replog/watch feed any node serves from its local log, the
// catch-up document a fresh or fallen-behind follower installs, and
// POST /v1/promote. The follower's sync loop lives in follow.go.
//
// Determinism is the contract that makes this work: the engine's
// mutation path is deterministic over (state, operation), so a
// follower that replays the leader's mutations in log order holds a
// byte-identical engine — same slots, same clusters, same costs — and
// the log carries outcomes (the join's placement, the compaction's
// removal count) purely to VERIFY that, never to re-decide it. The
// one decision that cannot be replayed is maintenance itself (its
// outcome depends on step budgets and interleaved churn only the
// leader saw), so maintenance relocations are replicated as data:
// each step's granted moves, final targets resolved.
//
// Every server instance carries a random epoch; both long-poll feeds
// (/v1/view/watch and /v1/replog/watch) stamp it on responses and
// compare it against the client's echoed copy, so a client that
// outlived its upstream's restart — sequence numbers reset, history
// gone — is detected by mismatch and resynchronized with a full
// record instead of being fed records keyed against someone else's
// history.

// Replication-feed bounds.
const (
	// replogMaxBatch bounds entries per /v1/replog/watch response.
	replogMaxBatch = 1024
	// replogRetain is how many applied entries the leader keeps for
	// incremental catch-up; followers further behind get a snapshot.
	// Truncation is amortized: the log is cut back to replogRetain
	// once it doubles.
	replogRetain = 4096
)

// newEpoch draws a random instance epoch from the OS entropy source.
// Zero is reserved ("no epoch"), so it is never returned. The global
// math/rand source is deliberately avoided: epochs must be distinct
// across instances even when processes share a seeding strategy, and
// nothing else in the process may perturb (or be perturbed by) the
// draw.
func newEpoch() uint64 {
	var buf [8]byte
	for {
		if _, err := crand.Read(buf[:]); err != nil {
			panic(fmt.Sprintf("service: reading entropy for epoch: %v", err))
		}
		if e := binary.LittleEndian.Uint64(buf[:]); e != 0 {
			return e
		}
	}
}

// currentTerm is the term stamped on outgoing replication records: the
// leadership term when leading, the highest replicated term otherwise.
func (s *Server) currentTerm() uint64 {
	if s.isLeader.Load() {
		return s.leaderTerm.Load()
	}
	return s.replLog.Term()
}

// logLocked appends one mutation to the replication log. Callers hold
// s.mu — the log order is the mutation order because every append
// shares the mutation's critical section. No-op on followers: their
// entries arrive pre-sequenced from the leader's stream.
func (s *Server) logLocked(kind replog.Kind, op any) {
	if !s.isLeader.Load() {
		return
	}
	var data []byte
	if op != nil {
		data = replog.EncodeOp(op)
	}
	s.replLog.Next(s.leaderTerm.Load(), kind, data)
	s.entriesLogged.Add(1)
	if s.replLog.Len() > 2*replogRetain {
		s.replLog.TruncateBefore(s.replLog.LastIndex() - replogRetain)
	}
}

// logGrantsLocked replicates the relocations a maintenance step
// granted beyond the first `drained` and returns the new cursor
// (Period.Moves at drain time). Callers hold s.mu; the entry shares
// the step's critical section, so followers apply each grant batch at
// the same history point the leader's read view first reflected it.
func (s *Server) logGrantsLocked(per *protocol.Period, drained int) int {
	n := per.Moves()
	if n <= drained || !s.isLeader.Load() {
		return n
	}
	reqs := per.AppendGrantsSince(nil, drained)
	op := replog.GrantsOp{Moves: make([]replog.Grant, len(reqs))}
	for i, r := range reqs {
		op.Moves[i] = replog.Grant{Slot: r.Peer, To: int(r.To)}
	}
	s.logLocked(replog.KindGrants, op)
	return n
}

// catchUpVersion identifies the catch-up document schema.
const catchUpVersion = 1

// catchUp is the snapshot payload of a RecSnapshot record: the serving
// state at one log position, pinned down to the identifier orderings a
// byte-identical replay needs. The regular Snapshot is not enough —
// restoring it re-interns terms and queries in peer order, but future
// log entries were produced against the leader's historical vocabulary
// ID order, QID order (dead queries included: they still occupy IDs
// until a compaction entry retires them) and vacated-slot stack, so
// the document carries all three explicitly.
type catchUp struct {
	Version     int     `json:"version"`
	Alpha       float64 `json:"alpha"`
	Epsilon     float64 `json:"epsilon"`
	Slots       int     `json:"slots"`
	Compactions int64   `json:"compactions"`
	// Terms is the vocabulary in ID order.
	Terms []string `json:"terms"`
	// Queries is every distinct query in QID order, as sorted term IDs.
	Queries [][]int       `json:"queries"`
	Peers   []catchUpPeer `json:"peers"`
	// Free is the vacated-slot stack (AddPeer pops the last element).
	Free []int `json:"free"`
	// Pop is the engine's population/content version, carried so the
	// follower's published RoutingViews are byte-identical to the
	// leader's (routers compare PopVersion when applying deltas).
	Pop uint64 `json:"pop"`
	// Index and Term are the log position the state reflects; the
	// follower resumes streaming from here.
	Index uint64 `json:"index"`
	Term  uint64 `json:"term"`
	// InPeriod reports a maintenance period open at this position — a
	// follower promoted before seeing its period_end must close it.
	InPeriod bool `json:"in_period"`
}

// catchUpPeer is one live peer, content and workload resolved to the
// pinned ID spaces.
type catchUpPeer struct {
	Slot    int     `json:"slot"`
	Cluster int     `json:"cluster"`
	Items   [][]int `json:"items"`
	// Workload pairs are {QID, count}.
	Workload [][2]int `json:"workload"`
}

// buildCatchUpLocked captures the serving state as a catch-up
// document. Callers hold s.mu, which also freezes the log position.
func (s *Server) buildCatchUpLocked() *catchUp {
	doc := &catchUp{
		Version:     catchUpVersion,
		Alpha:       s.cfg.Alpha,
		Epsilon:     s.cfg.Epsilon,
		Slots:       s.eng.NumSlots(),
		Compactions: s.compactions.Load(),
		Terms:       append([]string{}, s.vocab.Names()...),
		Index:       s.replLog.LastIndex(),
		Term:        s.currentTerm(),
		InPeriod:    s.replOpenPeriod.Load(),
		Free:        append([]int(nil), s.eng.FreeSlots()...),
		Pop:         s.eng.PopVersion(),
	}
	wl := s.eng.Workload()
	doc.Queries = make([][]int, wl.NumQueries())
	for qid := range doc.Queries {
		ids := wl.Query(workload.QID(qid)).IDs()
		q := make([]int, len(ids))
		for i, id := range ids {
			q[i] = int(id)
		}
		doc.Queries[qid] = q
	}
	for pid := 0; pid < s.eng.NumSlots(); pid++ {
		if !s.eng.IsLive(pid) {
			continue
		}
		cp := catchUpPeer{
			Slot:    pid,
			Cluster: int(s.eng.Config().ClusterOf(pid)),
		}
		for _, it := range s.eng.Peers()[pid].Items() {
			ids := it.IDs()
			item := make([]int, len(ids))
			for i, id := range ids {
				item[i] = int(id)
			}
			cp.Items = append(cp.Items, item)
		}
		for _, en := range wl.Peer(pid) {
			cp.Workload = append(cp.Workload, [2]int{int(en.Q), en.Count})
		}
		doc.Peers = append(doc.Peers, cp)
	}
	return doc
}

// installCatchUp replaces the server's overlay state with a catch-up
// document: fresh vocabulary interned in the pinned ID order, distinct
// queries interned in the pinned QID order, every peer placed in its
// recorded slot and cluster, and the vacated-slot stack installed so
// future replicated joins pop the same slots the leader's will. It
// passes checkState, as a snapshot does, before anything is built.
func (s *Server) installCatchUp(data []byte) error {
	var doc catchUp
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("service: decode catch-up: %w", err)
	}
	peers, assign, err := checkState("catch-up", doc.Version, catchUpVersion, doc.Slots, doc.Alpha, doc.Epsilon,
		len(doc.Peers), func(i int) (int, int, bool) {
			cp := &doc.Peers[i]
			return cp.Slot, cp.Cluster, !slices.ContainsFunc(cp.Workload, func(qc [2]int) bool {
				return qc[0] < 0 || qc[0] >= len(doc.Queries) || qc[1] <= 0
			})
		})
	if err != nil {
		return err
	}
	vocab := attr.NewVocab()
	for id, name := range doc.Terms {
		if got := vocab.Intern(name); int(got) != id {
			return fmt.Errorf("service: catch-up term %d (%q) interned as %d", id, name, got)
		}
	}
	toSet := func(ids []int) (attr.Set, error) {
		out := make([]attr.ID, len(ids))
		for i, id := range ids {
			if id < 0 || id >= len(doc.Terms) {
				return attr.Set{}, fmt.Errorf("service: catch-up term id %d out of range", id)
			}
			out[i] = attr.ID(id)
		}
		return attr.NewSet(out...), nil
	}
	wl := workload.New(doc.Slots)
	for qid, ids := range doc.Queries {
		set, err := toSet(ids)
		if err != nil {
			return err
		}
		if set.IsEmpty() {
			return fmt.Errorf("service: catch-up has invalid query %d: no terms", qid)
		}
		if got := wl.Intern(set); int(got) != qid {
			return fmt.Errorf("service: catch-up query %d interned as %d", qid, got)
		}
	}
	for _, cp := range doc.Peers {
		items := make([]attr.Set, 0, len(cp.Items))
		for _, it := range cp.Items {
			set, err := toSet(it)
			if err != nil {
				return err
			}
			items = append(items, set)
		}
		peers[cp.Slot].SetItems(items)
		for _, qc := range cp.Workload {
			wl.AddQID(cp.Slot, workload.QID(qc[0]), qc[1])
		}
	}
	eng := core.New(peers, wl, cluster.FromAssignment(assign), s.cfg.Theta, doc.Alpha)
	if err := eng.SetFreeSlots(doc.Free); err != nil {
		return err
	}
	eng.SetPopVersion(doc.Pop)

	defer s.lockMutation()()
	s.cfg.Alpha, s.cfg.Epsilon = doc.Alpha, doc.Epsilon
	s.replLog.Reset(doc.Index, doc.Term)
	s.replOpenPeriod.Store(doc.InPeriod)
	s.adoptLocked(vocab, eng, doc.Compactions)
	s.catchupsInstalled.Add(1)
	s.replSynced.Store(true)
	return nil
}

// applyEntryLocked replays one replicated mutation through the
// transition method the leader called for it (see the comment above
// compactLocked), or a grants entry as the engine Moves the leader's
// protocol.Period made.
// It publishes the new state; an error means divergence, and the caller
// must discard its position and resynchronize with a catch-up snapshot.
// Callers hold s.mu.
func (s *Server) applyEntryLocked(e replog.Entry) error {
	switch e.Kind {
	case replog.KindJoin:
		want, err := replog.DecodeOp[replog.JoinOp](e.Data)
		if err != nil {
			return err
		}
		if !validQueries(want.Queries) {
			return fmt.Errorf("service: replicated join has invalid query")
		}
		if got := s.joinLocked(want); got.Slot != want.Slot || got.Cluster != want.Cluster {
			return fmt.Errorf("service: replicated join placed in slot %d cluster %d, leader chose slot %d cluster %d (diverged)",
				got.Slot, got.Cluster, want.Slot, want.Cluster)
		}
	case replog.KindLeave:
		op, err := replog.DecodeOp[replog.LeaveOp](e.Data)
		if err != nil {
			return err
		}
		if !s.isLive(op.Slot) {
			return fmt.Errorf("service: replicated leave of non-live slot %d (diverged)", op.Slot)
		}
		s.leaveLocked(op.Slot)
	case replog.KindGrants:
		op, err := replog.DecodeOp[replog.GrantsOp](e.Data)
		if err != nil {
			return err
		}
		for _, m := range op.Moves {
			if !s.isLive(m.Slot) || m.To < 0 || m.To >= s.eng.NumSlots() {
				return fmt.Errorf("service: replicated grant of slot %d to cluster %d (diverged)", m.Slot, m.To)
			}
			s.eng.Move(m.Slot, cluster.CID(m.To))
		}
	case replog.KindCompact:
		want, err := replog.DecodeOp[replog.CompactOp](e.Data)
		if err != nil {
			return err
		}
		if got := s.compactLocked(); got != want {
			return fmt.Errorf("service: replicated compaction removed %d -> %d queries, leader had %d -> %d (diverged)",
				got.Removed, got.Queries, want.Removed, want.Queries)
		}
	case replog.KindPeriodStart:
		s.startPeriodLocked()
	case replog.KindPeriodEnd:
		op, err := replog.DecodeOp[replog.PeriodEndOp](e.Data)
		if err != nil {
			return err
		}
		s.endPeriodLocked(op)
	default:
		return fmt.Errorf("service: replicated entry of unknown kind %d", e.Kind)
	}
	if err := s.replLog.Append(e); err != nil {
		return err
	}
	s.entriesApplied.Add(1)
	s.publishLocked()
	return nil
}

// handleReplogWatch is the mutation-log feed: a long-poll that carries
// a follower from its log position to the present. First contact, an
// epoch mismatch (the client followed a previous instance) or a
// position below the truncation floor get a snapshot record built from
// live state; a positioned follower gets the next batch of entries; an
// up-to-date one parks until the next append, its timeout (204) or
// server shutdown (204). Any node serves the feed from its local log,
// so a promoted follower's own followers keep streaming seamlessly.
func (s *Server) handleReplogWatch(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(retry.EpochHeader, strconv.FormatUint(s.epoch, 10))
	q := r.URL.Query()
	from, ok := queryU64(w, q, "from")
	if !ok {
		return
	}
	epoch, ok := queryU64(w, q, "epoch")
	if !ok {
		return
	}
	// Without this instance's epoch the client cannot prove its
	// position is against this instance's history.
	positioned := q.Get("from") != "" && epoch == s.epoch
	s.longPoll(w, r, s.replLog.Watch, func() []byte {
		if positioned {
			if batch, ok := s.replLog.Since(from, replogMaxBatch); ok {
				if len(batch) == 0 {
					return nil
				}
				return replog.AppendEntries(nil, s.currentTerm(), batch)
			}
			// Below the truncation floor, or claiming a future the log
			// has not reached: resynchronize with a snapshot.
		}
		unlock := s.lockMutation()
		doc := s.buildCatchUpLocked()
		unlock()
		// The document is a private copy; encode it off the mutation
		// lock.
		s.catchupsServed.Add(1)
		return replog.AppendSnapshot(nil, doc.Term, doc.Index, replog.EncodeOp(doc))
	})
}

// promoteRequest is the POST /v1/promote body.
type promoteRequest struct {
	// Mode is "resume" (default: run a maintenance period immediately
	// over the replicated state, completing what the dead leader's
	// in-flight period would have) or "abort" (close any open period
	// and wait for the regular reform cadence). Both converge to the
	// same clusters; resume gets there without waiting a tick.
	Mode string `json:"mode"`
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	req := promoteRequest{Mode: "resume"}
	if r.ContentLength != 0 {
		if !api.DecodeStrict(w, r, "promote", &req) {
			return
		}
	}
	if req.Mode != "resume" && req.Mode != "abort" {
		api.Error(w, http.StatusBadRequest, api.CodeBadParam, "promote mode %q (want resume or abort)", req.Mode)
		return
	}
	term, err := s.Promote(req.Mode)
	if err != nil {
		api.Error(w, http.StatusConflict, api.CodeNotLeader, "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"role": "leader",
		"term": term,
		"mode": req.Mode,
	})
}

// Promote turns a follower into the leader: the follow loop is stopped
// and drained, the term advances past everything replicated, and a
// maintenance period the dead leader left open is closed in the log
// (every grant it had already made is replicated state — nothing is
// lost). Mode "resume" then runs a fresh period immediately — over the
// replicated state it converges to the same clusters the interrupted
// period was heading for; "abort" leaves that to the reform ticker.
func (s *Server) Promote(mode string) (term uint64, err error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.isLeader.Load() {
		return 0, fmt.Errorf("service: already the leader (term %d)", s.leaderTerm.Load())
	}
	// Stop the follow loop first so no entry lands between the term
	// bump and leadership: after followDone, the log is quiescent.
	s.followCancel()
	<-s.followDone

	unlock := s.lockMutation()
	term = s.replLog.Term() + 1
	s.leaderTerm.Store(term)
	s.isLeader.Store(true)
	s.replSynced.Store(true)
	if s.replOpenPeriod.Load() {
		// Close the dead leader's period at the last replicated step.
		s.endPeriodLocked(replog.PeriodEndOp{Aborted: true})
	}
	unlock()
	s.cfg.Logf("promote: leading at term %d (mode %s)", term, mode)

	if mode == "resume" {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			rpt := s.Reform()
			s.cfg.Logf("promote: resumed maintenance: %d rounds, %d moves, converged=%t, final SCost %.6g",
				rpt.RoundsRun, countMoves(rpt), rpt.Converged, rpt.FinalSCost)
		}()
	}
	return term, nil
}

// leaderOnly gates a control-plane mutation: followers answer 307 to
// their leader (Go clients replay the body via Request.GetBody) or 503
// not_leader when no leader is known.
func (s *Server) leaderOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.isLeader.Load() {
			h(w, r)
			return
		}
		if u, _ := s.leaderURL.Load().(string); u != "" {
			http.Redirect(w, r, u+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			return
		}
		api.Error(w, http.StatusServiceUnavailable, api.CodeNotLeader,
			"follower with no known leader; promote one or retry")
	}
}

// replicationStats is the /v1/stats replication block.
func (s *Server) replicationStats() api.ReplicationStats {
	role := "follower"
	if s.isLeader.Load() {
		role = "leader"
	}
	u, _ := s.leaderURL.Load().(string)
	return api.ReplicationStats{
		Role:              role,
		Term:              s.currentTerm(),
		Epoch:             strconv.FormatUint(s.epoch, 10),
		LogBase:           s.replLog.Base(),
		LogLast:           s.replLog.LastIndex(),
		LogLen:            s.replLog.Len(),
		EntriesLogged:     s.entriesLogged.Load(),
		EntriesApplied:    s.entriesApplied.Load(),
		CatchupsServed:    s.catchupsServed.Load(),
		CatchupsInstalled: s.catchupsInstalled.Load(),
		SyncErrors:        s.replErrors.Load(),
		Synced:            s.isLeader.Load() || s.replSynced.Load(),
		OpenPeriod:        s.replOpenPeriod.Load(),
		LeaderURL:         u,
	}
}
