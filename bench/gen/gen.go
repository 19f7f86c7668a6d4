// Package gen is the benchmark's seeded input generator. It produces
// everything a workload feeds the system under test: the snapshot
// document a daemon is restored from, the query pool and its
// pre-rendered request bodies, the uniform and Zipf draw sequences, the
// newcomer kits of the churn workload and its open-loop schedule. The
// program under test receives only these inputs; the harness keeps the
// generator's own System as the twin its correctness checks count
// against.
//
// The population is the dataset and is the same for every seed: how
// many rounds a population takes to converge, how long its posting
// lists are and how many clusters a query hits differ from one
// population to the next by more than any change the benchmark is meant
// to catch (the same 3000 peers relabelled converge in 52 to 120
// rounds). The seed drives the traffic: which conjunctions fill the
// pool, the draw sequences, the newcomers and who leaves when.
package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/attr"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Sizes fixes the shape of one generated input set.
type Sizes struct {
	// Peers is the restored population.
	Peers int
	// Pool is the number of distinct queries in the pool.
	Pool int
	// Batch is the number of queries per batch body.
	Batch int
	// Clients is how many independent draw sequences are produced.
	Clients int
	// Draws is the length of each client's draw sequence; a client
	// cycles through it, so it only has to outlast the caches.
	Draws int
	// Kits is the number of newcomer kits (joins the schedule may use).
	Kits int
	// ZipfS is the exponent of the skewed draw sequence.
	ZipfS float64
}

// Query is one pool entry.
type Query struct {
	// Terms are the query's term strings, as a client sends them.
	Terms []string
	// Set is the same query over the generator's vocabulary, for the
	// brute-force count.
	Set attr.Set
	// Body is the rendered POST /v1/query body.
	Body []byte
}

// Kit is one newcomer: a peer shaped like the seed population plus one
// term nobody has used yet, so every join grows the vocabulary.
type Kit struct {
	// Items is the newcomer's content over the generator's vocabulary.
	Items []attr.Set
	// Body is the rendered POST /v1/peers body.
	Body []byte
}

// EventKind is one kind of scheduled mutation.
type EventKind uint8

const (
	// Join admits Kits[Arg].
	Join EventKind = iota
	// Leave retires the seed peer in slot Arg.
	Leave
	// Reform runs one maintenance period.
	Reform
)

// Event is one entry of the open-loop mutation schedule.
type Event struct {
	At   time.Duration
	Kind EventKind
	Arg  int
}

// Inputs is everything one seed generates.
type Inputs struct {
	Sizes Sizes
	// System is the generator's own model of the population. The
	// harness counts against it and runs the oracle on it; the program
	// under test never sees it.
	System *experiments.System
	// Snapshot is the snapshot document: every peer in a singleton
	// cluster, in the daemon's snapshot format.
	Snapshot []byte
	// Pool is the query pool: the workload's distinct queries first,
	// then two-term conjunctions of terms that share a document.
	Pool []Query
	// Uniform and Zipf hold one pool-index sequence per client.
	Uniform, Zipf [][]int32
	// BatchBodies holds, per client, the POST /v1/query/batch bodies
	// rendered from consecutive Batch-sized runs of its Zipf sequence.
	BatchBodies [][][]byte
	// Kits are the newcomers of the churn schedule.
	Kits []Kit
	// BuildTime is how long experiments.Build took.
	BuildTime time.Duration
}

// PopulationSeed is the seed every population is built from.
const PopulationSeed = 1

// Params returns the experiment parameters of a benchmark population:
// the paper's defaults at the given size, with as many categories as
// the corpus supports, as `reform bench` builds its at-scale systems.
func Params(peers int) experiments.Params {
	p := experiments.DefaultParams()
	p.Peers = peers
	p.Categories = min(max(peers/16, 10), 16)
	p.Corpus.Categories = p.Categories
	p.TotalQueries = 4 * peers
	p.MaxRounds = 600
	p.Seed = PopulationSeed
	return p
}

type snapshotDoc struct {
	Version int            `json:"version"`
	Alpha   float64        `json:"alpha"`
	Epsilon float64        `json:"epsilon"`
	Slots   int            `json:"slots"`
	Peers   []snapshotPeer `json:"peers"`
}

type snapshotPeer struct {
	Slot    int          `json:"slot"`
	Cluster int          `json:"cluster"`
	Items   [][]string   `json:"items"`
	Queries []QueryCount `json:"queries"`
}

// QueryCount is one query of a peer's workload and how often the peer
// asks it.
type QueryCount struct {
	Terms []string `json:"terms"`
	Count int      `json:"count"`
}

// JoinBody is the POST /v1/peers body; the daemon's own type is
// unexported.
type JoinBody struct {
	Items   [][]string   `json:"items"`
	Queries []QueryCount `json:"queries"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("gen: %v", err)) // only plain structs are rendered
	}
	return b
}

// New generates the inputs of one seed.
func New(sz Sizes, seed uint64) *Inputs {
	p := Params(sz.Peers)
	t0 := time.Now()
	sys := experiments.Build(p, experiments.SameCategory)
	in := &Inputs{Sizes: sz, System: sys, BuildTime: time.Since(t0)}
	vocab := sys.Gen.Vocab()
	root := stats.NewRNG(seed ^ 0x62656e6368)
	rngPool, rngDraw, rngKit := root.Split(), root.Split(), root.Split()

	doc := snapshotDoc{Version: 1, Alpha: p.Alpha, Epsilon: p.Epsilon, Slots: sz.Peers}
	for pid, pr := range sys.Peers {
		sp := snapshotPeer{Slot: pid, Cluster: pid}
		for _, it := range pr.Items() {
			sp.Items = append(sp.Items, it.Names(vocab))
		}
		for _, en := range sys.WL.Peer(pid) {
			sp.Queries = append(sp.Queries, QueryCount{sys.WL.Query(en.Q).Names(vocab), en.Count})
		}
		doc.Peers = append(doc.Peers, sp)
	}
	in.Snapshot = mustJSON(doc)

	seen := make(map[string]bool, sz.Pool)
	add := func(q attr.Set) {
		if k := q.Key(); !seen[k] {
			seen[k] = true
			terms := q.Names(vocab)
			in.Pool = append(in.Pool, Query{Terms: terms, Set: q, Body: mustJSON(api.QueryRequest{Terms: terms})})
		}
	}
	for q := 0; q < sys.WL.NumQueries() && len(in.Pool) < sz.Pool; q++ {
		add(sys.WL.Query(workload.QID(q)))
	}
	for len(in.Pool) < sz.Pool {
		items := sys.Peers[rngPool.Intn(len(sys.Peers))].Items()
		ids := items[rngPool.Intn(len(items))].IDs()
		if len(ids) < 2 {
			continue
		}
		a := rngPool.Intn(len(ids))
		b := (a + 1 + rngPool.Intn(len(ids)-1)) % len(ids)
		add(attr.NewSet(ids[a], ids[b]))
	}

	zipf := stats.NewZipf(len(in.Pool), sz.ZipfS)
	for c := 0; c < sz.Clients; c++ {
		uni, zpf := make([]int32, sz.Draws), make([]int32, sz.Draws)
		for i := range uni {
			uni[i] = int32(rngDraw.Intn(len(in.Pool)))
			zpf[i] = int32(zipf.Sample(rngDraw))
		}
		var bodies [][]byte
		for i := 0; i+sz.Batch <= len(zpf); i += sz.Batch {
			bb := api.BatchRequest{Queries: make([]api.QueryRequest, sz.Batch)}
			for j, ix := range zpf[i : i+sz.Batch] {
				bb.Queries[j] = api.QueryRequest{Terms: in.Pool[ix].Terms}
			}
			bodies = append(bodies, mustJSON(bb))
		}
		in.Uniform = append(in.Uniform, uni)
		in.Zipf = append(in.Zipf, zpf)
		in.BatchBodies = append(in.BatchBodies, bodies)
	}

	for i := 0; i < sz.Kits; i++ {
		cat := i % p.Categories
		items, queries, counts := sys.NewcomerMaterials(cat, cat, 0, rngKit)
		novel := vocab.Intern(fmt.Sprintf("novel-%d-%d", seed, i))
		items[0] = items[0].Union(attr.NewSet(novel))
		jb := JoinBody{}
		for _, it := range items {
			jb.Items = append(jb.Items, it.Names(vocab))
		}
		for k, q := range queries {
			jb.Queries = append(jb.Queries, QueryCount{q.Names(vocab), counts[k]})
		}
		in.Kits = append(in.Kits, Kit{Items: items, Body: mustJSON(jb)})
	}
	return in
}

// Schedule lays out the churn workload's mutations over d: every
// second four joins, four leaves and one maintenance period, evenly
// spaced, joins and leaves alternating. Leave victims are seed peers
// drawn without replacement, so a schedule never names a slot twice.
// It stops early when the kits or the population run out.
func (in *Inputs) Schedule(d time.Duration, seed uint64) []Event {
	const perSecond = 9
	victims := stats.NewRNG(seed ^ 0x7363686564).Perm(in.Sizes.Peers)
	var evs []Event
	joins, leaves := 0, 0
	for i := 0; ; i++ {
		at := time.Duration(i) * time.Second / perSecond
		if at >= d {
			return evs
		}
		switch k := i % perSecond; {
		case k == perSecond-1:
			evs = append(evs, Event{at, Reform, 0})
		case k%2 == 0:
			if joins == len(in.Kits) {
				return evs
			}
			evs = append(evs, Event{at, Join, joins})
			joins++
		default:
			if leaves == len(victims) {
				return evs
			}
			evs = append(evs, Event{at, Leave, victims[leaves]})
			leaves++
		}
	}
}

// Digest hashes every generated byte the program under test can
// receive, so a test can pin that a seed determines its inputs.
func (in *Inputs) Digest(schedule []Event) [sha256.Size]byte {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put(in.Snapshot)
	for _, q := range in.Pool {
		put(q.Body)
	}
	for c := range in.Uniform {
		binary.Write(h, binary.LittleEndian, in.Uniform[c])
		binary.Write(h, binary.LittleEndian, in.Zipf[c])
		for _, b := range in.BatchBodies[c] {
			put(b)
		}
	}
	for _, k := range in.Kits {
		put(k.Body)
	}
	for _, e := range schedule {
		binary.Write(h, binary.LittleEndian, [3]int64{int64(e.At), int64(e.Kind), int64(e.Arg)})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
