package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/protocol"
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
	Slot    int          `json:"slot"`
	Cluster int          `json:"cluster"`
	Items   [][]string   `json:"items"`
	Queries []queryCount `json:"queries"`
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
			Queries: []queryCount{},
		}
		for _, it := range s.eng.Peers()[pid].Items() {
			ps.Items = append(ps.Items, it.Names(s.vocab))
		}
		for _, en := range wl.Peer(pid) {
			ps.Queries = append(ps.Queries, queryCount{
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
// The snapshot's alpha/epsilon override the config's.
func NewFromSnapshot(cfg Config, snap *Snapshot) (*Server, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("service: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	cfg.Alpha = snap.Alpha
	cfg.Epsilon = snap.Epsilon
	s := New(cfg)
	s.vocab = attr.NewVocabSized(snapshotVocabHint(snap))
	s.compactions.Store(int64(snap.Compactions))

	peers := make([]*peer.Peer, snap.Slots)
	wl := workload.New(snap.Slots)
	assign := make([]cluster.CID, snap.Slots)
	for i := range assign {
		assign[i] = cluster.None
	}
	for _, ps := range snap.Peers {
		if ps.Slot < 0 || ps.Slot >= snap.Slots {
			return nil, fmt.Errorf("service: snapshot slot %d out of range [0,%d)", ps.Slot, snap.Slots)
		}
		if peers[ps.Slot] != nil {
			return nil, fmt.Errorf("service: snapshot slot %d duplicated", ps.Slot)
		}
		if ps.Cluster < 0 || ps.Cluster >= snap.Slots {
			return nil, fmt.Errorf("service: snapshot peer %d in invalid cluster %d", ps.Slot, ps.Cluster)
		}
		pr := peer.New(ps.Slot)
		pr.SetItems(internItems(s.vocab, ps.Items))
		peers[ps.Slot] = pr
		for _, q := range ps.Queries {
			if len(q.Terms) == 0 || q.Count <= 0 {
				return nil, fmt.Errorf("service: snapshot peer %d has invalid query", ps.Slot)
			}
			wl.Add(ps.Slot, attr.NewSet(s.vocab.InternAll(q.Terms)...), q.Count)
		}
		assign[ps.Slot] = cluster.CID(ps.Cluster)
	}
	s.eng = core.New(peers, wl, cluster.FromAssignment(assign), s.cfg.Theta, s.cfg.Alpha)
	s.runner = s.newRunner()
	s.publishLocked()
	return s, nil
}

// maxVocabHint bounds the vocabulary size a restore reserves up front.
const maxVocabHint = 1 << 16

// snapshotVocabHint returns how many terms to size the vocabulary for
// before interning snap: the term occurrences in its items, which bound
// the distinct terms from above, capped because a vocabulary grows far
// slower than the text it is drawn from (3000 peers of the benchmark
// corpus hold 431 k occurrences of 32 k terms). Past the cap the map
// grows as it always did, from a size that spared the early doublings.
func snapshotVocabHint(snap *Snapshot) int {
	n := 0
	for _, ps := range snap.Peers {
		for _, it := range ps.Items {
			n += len(it)
		}
		if n >= maxVocabHint {
			return maxVocabHint
		}
	}
	return n
}

// internItems interns one peer's items, term by term in the order
// given, into a single slab of IDs, then sorts and dedups each item's
// span of it in place and adopts the span as the item's set: one
// allocation for the peer's IDs, not two per item. Joins, replayed
// joins and snapshot restores all turn term lists into content here.
func internItems(v *attr.Vocab, items [][]string) []attr.Set {
	n := 0
	for _, it := range items {
		n += len(it)
	}
	slab := make([]attr.ID, n)
	sets := make([]attr.Set, len(items))
	for i, it := range items {
		if len(it) == 0 {
			continue
		}
		span := slab[:len(it)]
		slab = slab[len(it):]
		for k, name := range it {
			span[k] = v.Intern(name)
		}
		slices.Sort(span)
		sets[i] = attr.FromSorted(slices.Clip(slices.Compact(span)))
	}
	return sets
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
