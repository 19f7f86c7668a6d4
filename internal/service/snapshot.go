package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/protocol"
	"repro/internal/replog"
	"repro/internal/workload"
)

// snapshotVersion identifies the snapshot schema.
const snapshotVersion = 1

// Snapshot is the daemon's full serialized state: every live peer
// with its slot, cluster, content and local workload, all attributes
// resolved to their term strings (the vocabulary is rebuilt on
// restore, so snapshots are self-contained and stable across
// processes). Slots records the total slot count so peer IDs survive
// a restore even with vacated slots in between.
type Snapshot struct {
	Version int     `json:"version"`
	Alpha   float64 `json:"alpha"`
	Epsilon float64 `json:"epsilon"`
	Slots   int     `json:"slots"`
	// Compactions is the daemon's compaction generation at snapshot
	// time. Restores carry it forward so operational counters survive
	// restarts; the peer state needs nothing else — a restore
	// re-interns only live queries and is itself maximally compact.
	Compactions int            `json:"compactions,omitempty"`
	Peers       []PeerSnapshot `json:"peers"`
}

// PeerSnapshot is one live peer's state.
type PeerSnapshot struct {
	Slot    int                 `json:"slot"`
	Cluster int                 `json:"cluster"`
	Items   [][]string          `json:"items"`
	Queries []replog.QueryCount `json:"queries"`
}

// Snapshot captures the daemon's current state.
func (s *Server) Snapshot() *Snapshot {
	defer s.lockMutation()()
	snap := &Snapshot{
		Version:     snapshotVersion,
		Alpha:       s.cfg.Alpha,
		Epsilon:     s.cfg.Epsilon,
		Slots:       s.eng.NumSlots(),
		Compactions: int(s.compactions.Load()),
		Peers:       []PeerSnapshot{},
	}
	wl := s.eng.Workload()
	for pid := 0; pid < s.eng.NumSlots(); pid++ {
		if !s.eng.IsLive(pid) {
			continue
		}
		ps := PeerSnapshot{
			Slot:    pid,
			Cluster: int(s.eng.Config().ClusterOf(pid)),
			Items:   [][]string{},
			Queries: []replog.QueryCount{},
		}
		for _, it := range s.eng.Peers()[pid].Items() {
			ps.Items = append(ps.Items, it.Names(s.vocab))
		}
		for _, en := range wl.Peer(pid) {
			ps.Queries = append(ps.Queries, replog.QueryCount{
				Terms: wl.Query(en.Q).Names(s.vocab),
				Count: en.Count,
			})
		}
		snap.Peers = append(snap.Peers, ps)
	}
	return snap
}

// NewFromSnapshot builds a Server whose overlay resumes exactly where
// the snapshot left off: same peer IDs, same clusters, same costs.
// The snapshot's alpha/epsilon override the config's. The document is
// checked whole before anything is built from it; a document that
// fails a check is an error, never a panic.
func NewFromSnapshot(cfg Config, snap *Snapshot) (*Server, error) {
	peers, assign, err := checkState("snapshot", snap.Version, snapshotVersion, snap.Slots, snap.Alpha, snap.Epsilon,
		len(snap.Peers), func(i int) (int, int, bool) {
			ps := &snap.Peers[i]
			return ps.Slot, ps.Cluster, validQueries(ps.Queries)
		})
	if err != nil {
		return nil, err
	}
	cfg.Alpha = snap.Alpha
	cfg.Epsilon = snap.Epsilon
	s := New(cfg)
	vocab := attr.NewVocabSized(snapshotVocabHint(snap.Peers))
	queries := restoreContent(vocab, snap.Peers, peers)
	wl := workload.New(snap.Slots)
	k := 0
	for _, ps := range snap.Peers {
		for _, q := range ps.Queries {
			wl.Add(ps.Slot, queries[k], q.Count)
			k++
		}
	}
	eng := core.New(peers, wl, cluster.FromAssignment(assign), s.cfg.Theta, s.cfg.Alpha)
	s.adoptLocked(vocab, eng, int64(snap.Compactions))
	return s, nil
}

// adoptLocked makes vocab and eng the serving state and publishes it.
// Callers hold s.mu, or have exclusive access while constructing, and
// have set s.cfg's alpha and epsilon to the state's.
func (s *Server) adoptLocked(vocab *attr.Vocab, eng *core.Engine, compactions int64) {
	s.vocab, s.eng = vocab, eng
	s.runner = s.newRunner()
	s.compactions.Store(compactions)
	s.publishLocked()
}

// maxSnapshotSlots bounds the slot count a state document may declare:
// every slot costs the engine a few hundred bytes whether a peer holds
// it or not, so a larger count is a corrupt document, not a population.
const maxSnapshotSlots = 1 << 22

// validQueries reports whether every query has terms and a positive
// count.
func validQueries(qs []replog.QueryCount) bool {
	for _, q := range qs {
		if len(q.Terms) == 0 || q.Count <= 0 {
			return false
		}
	}
	return true
}

// checkState validates what both state documents, a snapshot and a
// catch-up document, hold: version, slots, alpha, epsilon, then the
// slot, cluster and workload of each of the n peers peerAt reports. It
// returns the peers, with no content yet, and their clusters by slot
// (cluster.None for a vacant slot), or the first fault in document
// order, naming the document doc.
func checkState(doc string, version, want, slots int, alpha, epsilon float64, n int, peerAt func(i int) (slot, cid int, validQueries bool)) ([]*peer.Peer, []cluster.CID, error) {
	switch {
	case version != want:
		return nil, nil, fmt.Errorf("service: %s version %d, want %d", doc, version, want)
	case slots < 0 || slots > maxSnapshotSlots:
		return nil, nil, fmt.Errorf("service: %s slots %d out of range [0,%d]", doc, slots, maxSnapshotSlots)
	case !(alpha >= 0):
		return nil, nil, fmt.Errorf("service: %s alpha %g, want a non-negative number", doc, alpha)
	case !(epsilon >= 0):
		return nil, nil, fmt.Errorf("service: %s epsilon %g, want a non-negative number", doc, epsilon)
	}
	peers := make([]*peer.Peer, slots)
	assign := make([]cluster.CID, slots)
	for i := range assign {
		assign[i] = cluster.None
	}
	for i := range n {
		slot, cid, ok := peerAt(i)
		if slot < 0 || slot >= slots {
			return nil, nil, fmt.Errorf("service: %s slot %d out of range [0,%d)", doc, slot, slots)
		}
		if peers[slot] != nil {
			return nil, nil, fmt.Errorf("service: %s slot %d duplicated", doc, slot)
		}
		if cid < 0 || cid >= slots {
			return nil, nil, fmt.Errorf("service: %s peer %d in invalid cluster %d", doc, slot, cid)
		}
		if !ok {
			return nil, nil, fmt.Errorf("service: %s peer %d has invalid query", doc, slot)
		}
		peers[slot] = peer.New(slot)
		assign[slot] = cluster.CID(cid)
	}
	return peers, assign, nil
}

// restoreChunk is one worker's share of a restore: a run of the
// snapshot's peers, interned into a term table of its own.
type restoreChunk struct {
	docs  []PeerSnapshot
	vocab *attr.Vocab
	// items[i] holds docs[i]'s item terms as IDs of vocab, one slab per
	// peer (see internTerms); terms holds the chunk's query terms, in
	// document order, the same way.
	items [][]attr.ID
	terms []attr.ID
	// remap maps vocab's IDs to the restore's; nil when vocab is the
	// restore's own.
	remap []attr.ID
	// queries is the chunk's share of the restore's query sets, in
	// document order.
	queries []attr.Set
}

// restoreContent gives every peer of docs its items and returns their
// query sets in document order, interning the terms into v in three
// phases. The docs are cut into runs of peers, as many as
// core.RestoreWorkers gives for them, and each run is interned on its
// own worker into a table of its own, the first run's table being v.
// Then the other tables are merged into v serially, run after run,
// each in the order its names first occurred. Last, each worker maps
// its run's IDs to v's, sorts and dedups every item and query, sets
// the peers' items and freezes them (builds their inverted indexes).
//
// A term's first occurrence in the document falls in the first run
// that holds it, at its first occurrence there, so the merge hands out
// IDs in the order of first occurrence in the whole document: every
// term gets the ID interning peer after peer, items then queries, one
// goroutine, would give it.
func restoreContent(v *attr.Vocab, docs []PeerSnapshot, peers []*peer.Peer) []attr.Set {
	nq := 0
	for _, ps := range docs {
		nq += len(ps.Queries)
	}
	queries := make([]attr.Set, nq)
	w := core.RestoreWorkers(len(docs))
	chunks := make([]restoreChunk, w)
	rest := queries
	for i := range chunks {
		c := &chunks[i]
		c.docs = docs[i*len(docs)/w : (i+1)*len(docs)/w]
		c.vocab = v
		if i > 0 {
			c.vocab = attr.NewVocabSized(snapshotVocabHint(c.docs))
		}
		n := 0
		for _, ps := range c.docs {
			n += len(ps.Queries)
		}
		c.queries, rest = rest[:n], rest[n:]
	}
	fanOut(w, func(i int) { chunks[i].intern() })
	for i := 1; i < w; i++ {
		c := &chunks[i]
		c.remap = make([]attr.ID, c.vocab.Len())
		for id, name := range c.vocab.Names() {
			c.remap[id] = v.Intern(name)
		}
	}
	fanOut(w, func(i int) { chunks[i].adopt(peers) })
	return queries
}

// intern interns the chunk's terms into its table, peer after peer,
// items then queries.
func (c *restoreChunk) intern() {
	c.items = make([][]attr.ID, len(c.docs))
	n := 0
	for _, ps := range c.docs {
		for _, q := range ps.Queries {
			n += len(q.Terms)
		}
	}
	c.terms = make([]attr.ID, 0, n)
	for i, ps := range c.docs {
		c.items[i] = internTerms(c.vocab, ps.Items)
		for _, q := range ps.Queries {
			for _, name := range q.Terms {
				c.terms = append(c.terms, c.vocab.Intern(name))
			}
		}
	}
}

// adopt turns the chunk's interned terms into the peers' items and the
// chunk's query sets.
func (c *restoreChunk) adopt(peers []*peer.Peer) {
	terms, k := c.terms, 0
	for i, ps := range c.docs {
		pr := peers[ps.Slot]
		pr.SetItems(adoptItems(c.items[i], ps.Items, c.remap))
		pr.Freeze()
		for _, q := range ps.Queries {
			c.queries[k] = adoptSpan(terms[:len(q.Terms)], c.remap)
			terms, k = terms[len(q.Terms):], k+1
		}
	}
}

// fanOut calls f(0), ..., f(w-1) at once, f(0) on the calling
// goroutine, and returns when all have returned.
func fanOut(w int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(0)
	wg.Wait()
}

// maxVocabHint bounds the vocabulary size a restore reserves up front.
const maxVocabHint = 1 << 16

// snapshotVocabHint returns how many terms to size a vocabulary for
// before interning docs: the term occurrences in their items, which
// bound the distinct terms from above, capped because a vocabulary
// grows far slower than the text it is drawn from (3000 peers of the
// benchmark corpus hold 431 k occurrences of 32 k terms). Past the cap
// the map grows as it always did, from a size that spared the early
// doublings.
func snapshotVocabHint(docs []PeerSnapshot) int {
	n := 0
	for _, ps := range docs {
		for _, it := range ps.Items {
			n += len(it)
		}
		if n >= maxVocabHint {
			return maxVocabHint
		}
	}
	return n
}

// internItems interns one peer's items into a single slab of IDs and
// adopts the slab's spans as the item sets: one allocation for the
// peer's IDs, not two per item. Joins and replayed joins turn term
// lists into content here; a restore runs its two halves on its own
// workers (restoreContent).
func internItems(v *attr.Vocab, items [][]string) []attr.Set {
	return adoptItems(internTerms(v, items), items, nil)
}

// internTerms interns items term by term, in the order given, into one
// slab of IDs, the items' spans back to back.
func internTerms(v *attr.Vocab, items [][]string) []attr.ID {
	n := 0
	for _, it := range items {
		n += len(it)
	}
	slab := make([]attr.ID, 0, n)
	for _, it := range items {
		for _, name := range it {
			slab = append(slab, v.Intern(name))
		}
	}
	return slab
}

// adoptItems cuts slab, made by internTerms from items, into the items'
// spans and adopts each as a set (adoptSpan).
func adoptItems(slab []attr.ID, items [][]string, remap []attr.ID) []attr.Set {
	sets := make([]attr.Set, len(items))
	for i, it := range items {
		if len(it) == 0 {
			continue
		}
		sets[i] = adoptSpan(slab[:len(it)], remap)
		slab = slab[len(it):]
	}
	return sets
}

// adoptSpan maps every ID of span through remap, unless it is nil, then
// sorts and dedups span in place and adopts it as a set.
func adoptSpan(span, remap []attr.ID) attr.Set {
	if remap != nil {
		for k, id := range span {
			span[k] = remap[id]
		}
	}
	slices.Sort(span)
	return attr.FromSorted(slices.Clip(slices.Compact(span)))
}

func (s *Server) newRunner() *protocol.Runner {
	return protocol.NewRunner(s.eng, core.NewSelfish(), protocol.Options{
		Epsilon:          s.cfg.Epsilon,
		MaxRounds:        s.cfg.MaxRounds,
		AllowNewClusters: true,
		Workers:          s.cfg.ReformWorkers,
	})
}

// WriteSnapshot atomically writes the current snapshot to path.
func (s *Server) WriteSnapshot(path string) error {
	snap := s.Snapshot()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode snapshot: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("service: snapshot dir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadSnapshot reads a snapshot written by WriteSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("service: decode snapshot %s: %w", path, err)
	}
	return &snap, nil
}
