// Package workload models the paper's query workload: the global list
// Q of all queries in the system (a multiset — a query may appear many
// times) and each peer's local workload Q(p_i), the queries that peer
// issued. The cost model weighs queries by num(q,Q(p))/num(Q(p))
// locally and num(q,Q)/num(Q) globally (§2).
package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/attr"
)

// QID is a dense identifier for a distinct query.
type QID int32

// Entry pairs a query with its multiplicity in some workload.
type Entry struct {
	Q     QID
	Count int
}

// Workload stores the global query list and the per-peer local
// workloads. Queries are deduplicated; multiplicities are tracked per
// peer and globally. The zero value is unusable; call New.
type Workload struct {
	numPeers int

	// The intern table: queries[qid] is the query of qid, and slots is an
	// open-addressing hash table over them. A slot holds 0 or 1+QID, a
	// query sits in the first slot from hashSet(q) on (in probe order)
	// that was empty when it was interned, and len(slots) is a power of
	// two at least twice len(queries). Clones share slots (see Clone):
	// while shared is set nobody writes it, and the first write copies
	// it (ownSlots).
	queries []attr.Set
	slots   []int32
	shared  *atomic.Bool

	global  []int     // num(q,Q) per QID
	perPeer [][]Entry // peer -> sorted-by-QID entries with Count > 0
	peerTot []int     // num(Q(p)) per peer
	total   int       // num(Q)
	version int

	// Retirement/compaction state (see compact.go): clock counts
	// demand-recording events, lastUse[q] stamps the most recent one
	// touching q, compactions counts Compact calls that removed
	// queries, and remapScratch is the reused old->new remap buffer.
	clock        int64
	lastUse      []int64
	compactions  int
	remapScratch []QID
}

// New creates an empty workload over numPeers peers.
func New(numPeers int) *Workload {
	return &Workload{
		numPeers: numPeers,
		slots:    make([]int32, 16),
		shared:   new(atomic.Bool),
		perPeer:  make([][]Entry, numPeers),
		peerTot:  make([]int, numPeers),
	}
}

// NumPeers returns the number of peer slots the workload spans.
func (w *Workload) NumPeers() int { return w.numPeers }

// AddPeerSlot appends one peer slot with an empty local workload and
// returns its ID. Dynamic membership grows the workload with the
// cluster configuration; departed peers keep their slot (cleared by
// ClearPeer) so IDs stay dense and stable.
func (w *Workload) AddPeerSlot() int {
	p := w.numPeers
	w.numPeers++
	w.perPeer = append(w.perPeer, nil)
	w.peerTot = append(w.peerTot, 0)
	w.version++
	return p
}

// Version increments on every mutation.
func (w *Workload) Version() int { return w.version }

// Intern registers q and returns its QID, reusing an existing ID for an
// equal query.
func (w *Workload) Intern(q attr.Set) QID {
	i, ok := w.find(q)
	if ok {
		return QID(w.slots[i] - 1)
	}
	id := QID(len(w.queries))
	w.queries = append(w.queries, q)
	w.global = append(w.global, 0)
	w.lastUse = append(w.lastUse, w.clock)
	if 2*len(w.queries) > len(w.slots) {
		w.index(2 * len(w.slots))
		return id
	}
	w.ownSlots()
	w.slots[i] = int32(id) + 1
	return id
}

// Lookup returns the QID of q when it is already interned, without
// allocating. The membership engine uses it on the join hot path, where
// a churning population re-issues mostly known queries.
func (w *Workload) Lookup(q attr.Set) (QID, bool) {
	i, ok := w.find(q)
	if !ok {
		return 0, false
	}
	return QID(w.slots[i] - 1), true
}

// find returns the slot holding q, or else the empty slot where q would
// go.
func (w *Workload) find(q attr.Set) (int, bool) {
	mask := len(w.slots) - 1
	for i := int(hashSet(q)) & mask; ; i = (i + 1) & mask {
		s := w.slots[i]
		if s == 0 {
			return i, false
		}
		if w.queries[s-1].Equal(q) {
			return i, true
		}
	}
}

// hashSet mixes q's IDs into its first slot.
func hashSet(q attr.Set) uint64 {
	h := uint64(q.Len())
	for _, id := range q.IDs() {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// ownSlots gives w a table of its own before a write: while a Clone may
// hold the table too, it copies it and takes a fresh mark for the copy.
func (w *Workload) ownSlots() {
	if !w.shared.Load() {
		return
	}
	w.shared = new(atomic.Bool)
	w.slots = slices.Clone(w.slots)
}

// index lays every query out afresh in a table of n slots of w's own.
func (w *Workload) index(n int) {
	if len(w.slots) == n {
		w.ownSlots()
		clear(w.slots)
	} else {
		if w.shared.Load() {
			w.shared = new(atomic.Bool)
		}
		w.slots = make([]int32, n)
	}
	for id, q := range w.queries {
		i, _ := w.find(q)
		w.slots[i] = int32(id) + 1
	}
}

// Query returns the attribute set of qid.
func (w *Workload) Query(qid QID) attr.Set { return w.queries[qid] }

// NumQueries returns the number of distinct queries.
func (w *Workload) NumQueries() int { return len(w.queries) }

// Add records count occurrences of query q issued by peer p.
func (w *Workload) Add(p int, q attr.Set, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("workload: Add count=%d", count))
	}
	w.addQID(p, w.Intern(q), count)
}

// AddQID records count occurrences of the already-interned query qid
// issued by peer p. The membership engine uses it to register a
// joiner's workload without re-keying the query sets.
func (w *Workload) AddQID(p int, qid QID, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("workload: AddQID count=%d", count))
	}
	if int(qid) < 0 || int(qid) >= len(w.queries) {
		panic(fmt.Sprintf("workload: AddQID unknown query %d", qid))
	}
	w.addQID(p, qid, count)
}

// Count returns num(q, Q(p)) for one specific query: the multiplicity
// of qid in peer p's local workload (0 when p never issued it).
func (w *Workload) Count(p int, qid QID) int {
	entries := w.perPeer[p]
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Q >= qid })
	if i < len(entries) && entries[i].Q == qid {
		return entries[i].Count
	}
	return 0
}

func (w *Workload) addQID(p int, qid QID, count int) {
	if p < 0 || p >= w.numPeers {
		panic(fmt.Sprintf("workload: peer %d out of range [0,%d)", p, w.numPeers))
	}
	entries := w.perPeer[p]
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Q >= qid })
	if i < len(entries) && entries[i].Q == qid {
		entries[i].Count += count
	} else {
		entries = append(entries, Entry{})
		copy(entries[i+1:], entries[i:])
		entries[i] = Entry{Q: qid, Count: count}
		w.perPeer[p] = entries
	}
	w.global[qid] += count
	w.peerTot[p] += count
	w.total += count
	w.clock++
	w.lastUse[qid] = w.clock
	w.version++
}

// Peer returns peer p's local workload entries (sorted by QID). The
// returned slice is shared; callers must not modify it.
func (w *Workload) Peer(p int) []Entry { return w.perPeer[p] }

// PeerTotal returns num(Q(p)).
func (w *Workload) PeerTotal(p int) int { return w.peerTot[p] }

// GlobalCount returns num(q,Q).
func (w *Workload) GlobalCount(qid QID) int { return w.global[qid] }

// Total returns num(Q).
func (w *Workload) Total() int { return w.total }

// ClearPeer removes peer p's entire local workload. The entry slice's
// capacity is retained so churn (clear + re-add at similar size) does
// not reallocate.
func (w *Workload) ClearPeer(p int) {
	for _, e := range w.perPeer[p] {
		w.global[e.Q] -= e.Count
		w.total -= e.Count
	}
	w.perPeer[p] = w.perPeer[p][:0]
	w.peerTot[p] = 0
	w.version++
}

// ReplacePeer substitutes peer p's local workload with entries
// (attr sets with counts).
func (w *Workload) ReplacePeer(p int, queries []attr.Set, counts []int) {
	if len(queries) != len(counts) {
		panic("workload: ReplacePeer length mismatch")
	}
	w.ClearPeer(p)
	for i, q := range queries {
		w.Add(p, q, counts[i])
	}
}

// Clone returns a workload equal to w that can be changed independently
// of it; used by experiments that perturb a shared baseline. It shares
// the intern table and copies the rest: the two read the one table
// until either interns a new query or compacts, which copies it first.
// The per-peer entry lists are cut from one allocation, each clipped to
// its length, so a list the copy grows moves out instead of writing
// into its neighbour. Cloning writes nothing of w but an atomic mark,
// so any number of goroutines may clone one workload nobody is
// changing.
func (w *Workload) Clone() *Workload {
	w.shared.Store(true)
	cp := &Workload{
		numPeers:    w.numPeers,
		queries:     append([]attr.Set(nil), w.queries...),
		slots:       w.slots,
		shared:      w.shared,
		global:      append([]int(nil), w.global...),
		perPeer:     make([][]Entry, len(w.perPeer)),
		peerTot:     append([]int(nil), w.peerTot...),
		total:       w.total,
		version:     w.version,
		clock:       w.clock,
		lastUse:     append([]int64(nil), w.lastUse...),
		compactions: w.compactions,
	}
	entries := 0
	for _, es := range w.perPeer {
		entries += len(es)
	}
	arena := make([]Entry, 0, entries)
	for i, es := range w.perPeer {
		if len(es) > 0 {
			start := len(arena)
			arena = append(arena, es...)
			cp.perPeer[i] = arena[start:len(arena):len(arena)]
		}
	}
	return cp
}

// Validate checks internal consistency (global counts equal the sums of
// per-peer counts); it is used by property tests.
func (w *Workload) Validate() error {
	glob := make([]int, len(w.queries))
	total := 0
	for p, es := range w.perPeer {
		sum := 0
		last := QID(-1)
		for _, e := range es {
			if e.Q <= last {
				return fmt.Errorf("peer %d entries not strictly sorted", p)
			}
			last = e.Q
			if e.Count <= 0 {
				return fmt.Errorf("peer %d query %d non-positive count", p, e.Q)
			}
			glob[e.Q] += e.Count
			sum += e.Count
		}
		if sum != w.peerTot[p] {
			return fmt.Errorf("peer %d total %d != recorded %d", p, sum, w.peerTot[p])
		}
		total += sum
	}
	for q := range glob {
		if glob[q] != w.global[q] {
			return fmt.Errorf("query %d global %d != recorded %d", q, glob[q], w.global[q])
		}
	}
	if total != w.total {
		return fmt.Errorf("total %d != recorded %d", total, w.total)
	}
	if len(w.lastUse) != len(w.queries) {
		return fmt.Errorf("lastUse spans %d queries, want %d", len(w.lastUse), len(w.queries))
	}
	if n := len(w.slots); n&(n-1) != 0 || n < 2*len(w.queries) {
		return fmt.Errorf("%d slots for %d queries", n, len(w.queries))
	}
	filled := 0
	for _, s := range w.slots {
		if s != 0 {
			filled++
		}
	}
	if filled != len(w.queries) {
		return fmt.Errorf("%d filled slots for %d queries", filled, len(w.queries))
	}
	for id, q := range w.queries {
		if got, ok := w.Lookup(q); !ok || int(got) != id {
			return fmt.Errorf("query %d is found as %d (found %v)", id, got, ok)
		}
	}
	return nil
}
