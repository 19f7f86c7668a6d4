// Package replog is the serve tier's replicated mutation log: the
// monotone, term-numbered record of every state transition the
// authoritative daemon performs — peer joins and leaves, the
// relocation grants of each maintenance step, workload compactions,
// and maintenance-period boundaries. A leader appends one entry per
// mutation in application order and streams the log to followers over
// HTTP (see the wire records in wire.go); a follower applies each entry
// by calling the same state-machine method the leader called to make
// it (a grants entry's moves, made inside the leader's maintenance
// step, become engine moves), so its engine — and therefore its
// published routing views — tracks the leader's exactly.
//
// Entries are identified by a dense index (monotone from 1) and carry
// the term of the leader that appended them. Terms are bumped on every
// promotion, so a follower can tell a new leader's entries from a
// deposed one's: a record stream whose term regresses is rejected.
// Maintenance-period boundaries are first-class entries precisely for
// failover — a follower promoted while the log shows an open period
// knows maintenance was in flight and either resumes it (fresh period
// over the replicated state, which already contains every granted
// move) or closes it at the last replicated step; both paths converge
// to the same configuration because grants are replicated as they
// happen, never reconstructed.
//
// The log is held in memory. Truncate drops a prefix once it is no
// longer needed; a follower positioned before the truncation floor
// (or making first contact) catches up with a snapshot record built
// from the leader's live state instead of replaying history.
package replog

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Kind discriminates log entries.
type Kind byte

const (
	// KindJoin admits one peer (op: JoinOp).
	KindJoin Kind = 1
	// KindLeave retires one peer (op: LeaveOp).
	KindLeave Kind = 2
	// KindGrants applies the relocations one maintenance step granted
	// (op: GrantsOp).
	KindGrants Kind = 3
	// KindCompact retires dead workload queries (op: CompactOp).
	KindCompact Kind = 4
	// KindPeriodStart marks the beginning of a maintenance period (no
	// op payload).
	KindPeriodStart Kind = 5
	// KindPeriodEnd closes a maintenance period (op: PeriodEndOp).
	KindPeriodEnd Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindGrants:
		return "grants"
	case KindCompact:
		return "compact"
	case KindPeriodStart:
		return "period_start"
	case KindPeriodEnd:
		return "period_end"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Entry is one replicated mutation.
type Entry struct {
	// Index is the entry's position in the log (dense, from 1).
	Index uint64
	// Term is the leadership term that appended the entry.
	Term uint64
	// Kind discriminates Data.
	Kind Kind
	// Data is the kind-specific op payload (JSON; see the *Op types).
	Data []byte
}

// QueryCount is one workload entry of a joining peer.
type QueryCount struct {
	Terms []string `json:"terms"`
	Count int      `json:"count"`
}

// JoinOp admits a peer. Slot and Cluster record the placement the
// leader's engine chose; the follower's engine — replaying the same
// history — must choose identically, and a mismatch is divergence.
type JoinOp struct {
	Items   [][]string   `json:"items"`
	Queries []QueryCount `json:"queries"`
	Slot    int          `json:"slot"`
	Cluster int          `json:"cluster"`
}

// LeaveOp retires the peer in Slot.
type LeaveOp struct {
	Slot int `json:"slot"`
}

// Grant is one granted relocation: the peer in Slot moves to cluster
// To (the final target — new-cluster requests are resolved to a
// concrete cluster slot before they are logged).
type Grant struct {
	Slot int `json:"slot"`
	To   int `json:"to"`
}

// GrantsOp applies the relocations granted since the previous grants
// entry of the same period, in grant order.
type GrantsOp struct {
	Moves []Grant `json:"moves"`
}

// CompactOp retires dead workload queries. Removed and Queries record
// the leader's outcome (queries removed, distinct queries surviving);
// compaction is deterministic over replicated state, so a follower
// whose outcome differs has diverged.
type CompactOp struct {
	Removed int `json:"removed"`
	Queries int `json:"queries"`
}

// PeriodEndOp closes a maintenance period.
type PeriodEndOp struct {
	// Aborted is true when the period did not finish under the leader
	// that started it (leader death; the promoted leader closes it).
	Aborted bool `json:"aborted"`
	// Converged mirrors the protocol report for finished periods.
	Converged bool `json:"converged"`
	// Rounds and Moves summarize the finished period (observability).
	Rounds int `json:"rounds"`
	Moves  int `json:"moves"`
}

// EncodeOp serializes an op payload. Ops are built by the serving
// layer and are always marshalable; errors are programming mistakes.
func EncodeOp(op any) []byte {
	data, err := json.Marshal(op)
	if err != nil {
		panic(fmt.Sprintf("replog: encode op: %v", err))
	}
	return data
}

// DecodeOp parses an op payload of the given type.
func DecodeOp[T any](data []byte) (T, error) {
	var op T
	if err := json.Unmarshal(data, &op); err != nil {
		return op, fmt.Errorf("replog: decode op: %w", err)
	}
	return op, nil
}

// Log is the in-memory mutation log. Every node holds one: the leader
// appends via Next, followers append the streamed entries via Append
// (and can therefore serve the feed themselves — after a promotion,
// or as a relay). A Log is safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// base is the index of the state the retained suffix starts from:
	// entries[i].Index == base+1+i. A fresh log has base 0 (the empty
	// boot state); Reset moves it to a snapshot's index.
	base    uint64
	entries []Entry
	term    uint64
	// notify is closed and replaced on every append; Watch returns the
	// current channel so long-pollers can park on it.
	notify chan struct{}
}

// NewLog builds an empty log at base 0, term floor 0.
func NewLog() *Log {
	return &Log{notify: make(chan struct{})}
}

// Next appends a new entry as the given term's leader, assigning the
// next index. It returns the appended entry.
func (l *Log) Next(term uint64, kind Kind, data []byte) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term < l.term {
		panic(fmt.Sprintf("replog: leader term %d behind log term %d", term, l.term))
	}
	e := Entry{Index: l.lastLocked() + 1, Term: term, Kind: kind, Data: data}
	l.appendLocked(e)
	return e
}

// Append adds a replicated entry, enforcing index contiguity and term
// monotonicity — the guards that reject a deposed leader's stream.
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := l.lastLocked() + 1; e.Index != want {
		return fmt.Errorf("replog: entry index %d, want %d", e.Index, want)
	}
	if e.Term < l.term {
		return fmt.Errorf("replog: entry term %d regresses from %d", e.Term, l.term)
	}
	l.appendLocked(e)
	return nil
}

func (l *Log) appendLocked(e Entry) {
	l.entries = append(l.entries, e)
	l.term = e.Term
	close(l.notify)
	l.notify = make(chan struct{})
}

func (l *Log) lastLocked() uint64 {
	return l.base + uint64(len(l.entries))
}

// LastIndex returns the newest entry's index (== Base when empty).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLocked()
}

// Base returns the index the retained suffix starts from: entries
// (Base, LastIndex] are available; positions below Base need a
// snapshot.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Term returns the highest term appended so far.
func (l *Log) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Since returns up to max entries after index from (max <= 0 means
// all). ok is false when from precedes the retained suffix — the
// caller must catch up with a snapshot instead. The returned slice
// aliases log storage; callers must not mutate it.
func (l *Log) Since(from uint64, max int) (batch []Entry, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base || from > l.lastLocked() {
		return nil, false
	}
	batch = l.entries[from-l.base:]
	if max > 0 && len(batch) > max {
		batch = batch[:max]
	}
	return batch, true
}

// Watch returns a channel closed at the next append; pair with Since
// to long-poll the log.
func (l *Log) Watch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// TruncateBefore drops entries at or below index, raising Base. It
// never drops past the newest entry's index.
func (l *Log) TruncateBefore(index uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index > l.lastLocked() {
		index = l.lastLocked()
	}
	if index <= l.base {
		return
	}
	drop := index - l.base
	kept := l.entries[drop:]
	// Copy down so the dropped prefix is collectible.
	l.entries = append(l.entries[:0], kept...)
	l.base = index
}

// Reset re-bases the log on a snapshot: retained entries are dropped
// and the next expected index is index+1 at the given term floor. A
// follower installs the base its catch-up record names with it.
func (l *Log) Reset(index, term uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = l.entries[:0]
	l.base = index
	l.term = term
	close(l.notify)
	l.notify = make(chan struct{})
}
