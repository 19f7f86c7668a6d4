package cluster

import (
	"fmt"
	"sort"
)

// CID identifies a cluster slot. The system has Cmax slots (Cmax = |P|
// in the paper); a slot with no members is an empty cluster available
// for new-cluster creation.
type CID int32

// None is the sentinel for "no cluster".
const None CID = -1

// Config is a complete cluster configuration: the strategy profile
// S = {s_1, ..., s_|P|} restricted to single-cluster strategies
// (§2.3). It supports O(1) moves, membership queries and size lookups.
//
// Peer entries are slots: a slot whose assignment is None holds no
// peer (it either never joined or has departed). AddSlot, Place and
// Unplace realize dynamic membership; Live counts the occupied slots.
// Every structural change bumps an internal version counter that cost
// engines use to detect configurations mutated behind their back.
type Config struct {
	assign  []CID   // peer slot -> cluster (None = unoccupied slot)
	members [][]int // cid -> member peer IDs (unordered)
	pos     []int   // peer -> index within members[assign[peer]] (-1 when unplaced)
	live    int     // number of slots with assign != None
	filled  int     // number of clusters with at least one member
	version int     // bumped on every membership mutation
}

// NewSingletons builds the configuration where each peer forms its own
// cluster (initial configuration (i) of §4.1).
func NewSingletons(numPeers int) *Config {
	assign := make([]CID, numPeers)
	for i := range assign {
		assign[i] = CID(i)
	}
	return FromAssignment(assign)
}

// FromAssignment builds a configuration from a peer->cluster mapping.
// Cluster IDs must lie in [0, len(assign)) or be None (an unoccupied
// slot); the number of cluster slots Cmax always equals the number of
// peer slots.
func FromAssignment(assign []CID) *Config {
	n := len(assign)
	c := &Config{
		assign:  append([]CID(nil), assign...),
		members: make([][]int, n),
		pos:     make([]int, n),
	}
	for p, cid := range c.assign {
		if cid == None {
			c.pos[p] = -1
			continue
		}
		if cid < 0 || int(cid) >= n {
			panic(fmt.Sprintf("cluster: peer %d assigned to invalid cluster %d", p, cid))
		}
		c.join(p, cid)
		c.live++
	}
	return c
}

// NumPeers returns the number of peer slots (occupied or not).
func (c *Config) NumPeers() int { return len(c.assign) }

// Live returns the number of occupied peer slots: the live |P|.
func (c *Config) Live() int { return c.live }

// IsPlaced reports whether slot p currently holds a peer.
func (c *Config) IsPlaced(p int) bool { return c.assign[p] != None }

// MembershipVersion increments on every membership mutation (Move,
// AddSlot, Place, Unplace). Cost engines compare it against the value
// they last synchronized with to detect external mutation.
func (c *Config) MembershipVersion() int { return c.version }

// AddSlot appends one unoccupied peer slot — and, to preserve the
// Cmax = #slots invariant that guarantees a singleton cluster is
// always available, one empty cluster slot. It returns the new peer
// slot's ID.
func (c *Config) AddSlot() int {
	p := len(c.assign)
	c.assign = append(c.assign, None)
	c.pos = append(c.pos, -1)
	c.members = append(c.members, nil)
	c.version++
	return p
}

// Place puts the peer occupying slot p (which must be unplaced) into
// cluster cid.
func (c *Config) Place(p int, cid CID) {
	if c.assign[p] != None {
		panic(fmt.Sprintf("cluster: Place peer %d already in cluster %d", p, c.assign[p]))
	}
	if cid < 0 || int(cid) >= len(c.members) {
		panic(fmt.Sprintf("cluster: Place peer %d into invalid cluster %d", p, cid))
	}
	c.join(p, cid)
	c.live++
	c.version++
}

// join appends p to cid's member list and records the assignment,
// counting the cluster when p is its first member.
func (c *Config) join(p int, cid CID) {
	if len(c.members[cid]) == 0 {
		c.filled++
	}
	c.pos[p] = len(c.members[cid])
	c.members[cid] = append(c.members[cid], p)
	c.assign[p] = cid
}

// leave removes p from its cluster's member list by swapping with the
// last member, uncounting the cluster when p was its only member. The
// caller overwrites assign[p] and pos[p].
func (c *Config) leave(p int) {
	from := c.assign[p]
	m := c.members[from]
	i := c.pos[p]
	last := len(m) - 1
	m[i] = m[last]
	c.pos[m[i]] = i
	c.members[from] = m[:last]
	if last == 0 {
		c.filled--
	}
}

// Unplace removes peer p from its cluster, leaving its slot
// unoccupied, and returns the cluster it left.
func (c *Config) Unplace(p int) CID {
	from := c.assign[p]
	if from == None {
		panic(fmt.Sprintf("cluster: Unplace peer %d is not placed", p))
	}
	c.leave(p)
	c.assign[p] = None
	c.pos[p] = -1
	c.live--
	c.version++
	return from
}

// Cmax returns the number of cluster slots (= |P|).
func (c *Config) Cmax() int { return len(c.members) }

// ClusterOf returns the cluster peer p belongs to.
func (c *Config) ClusterOf(p int) CID { return c.assign[p] }

// Size returns the number of members of cid.
func (c *Config) Size(cid CID) int { return len(c.members[cid]) }

// Members returns the member peer IDs of cid in ascending order.
func (c *Config) Members(cid CID) []int {
	out := append([]int(nil), c.members[cid]...)
	sort.Ints(out)
	return out
}

// Representative returns the cluster representative of cid: the member
// with the smallest peer ID (§3.2 notes representatives need not be
// stable across rounds; a deterministic choice keeps runs reproducible).
// It returns -1 for empty clusters.
func (c *Config) Representative(cid CID) int {
	rep := -1
	for _, p := range c.members[cid] {
		if rep < 0 || p < rep {
			rep = p
		}
	}
	return rep
}

// NonEmpty returns the IDs of non-empty clusters in ascending order.
func (c *Config) NonEmpty() []CID {
	return c.AppendNonEmpty(nil)
}

// AppendNonEmpty appends the IDs of non-empty clusters in ascending
// order to dst and returns the extended slice. Hot paths pass a reused
// scratch slice (dst[:0]) to stay allocation-free.
func (c *Config) AppendNonEmpty(dst []CID) []CID {
	for cid := range c.members {
		if len(c.members[cid]) > 0 {
			dst = append(dst, CID(cid))
		}
	}
	return dst
}

// MembersUnsorted returns the member peer IDs of cid in internal
// (arbitrary) order. The returned slice is shared with the Config and
// must not be modified or retained across Moves; use Members for a
// stable sorted copy.
func (c *Config) MembersUnsorted(cid CID) []int { return c.members[cid] }

// NumNonEmpty returns the number of non-empty clusters. The count is
// maintained by every membership mutation, so this is an O(1) read.
func (c *Config) NumNonEmpty() int { return c.filled }

// EmptyCluster returns the lowest-numbered empty cluster slot, or
// (None, false) if every slot is occupied.
func (c *Config) EmptyCluster() (CID, bool) {
	for cid := range c.members {
		if len(c.members[cid]) == 0 {
			return CID(cid), true
		}
	}
	return None, false
}

// Move relocates peer p to cluster to, returning its previous cluster.
// Moving a peer to its current cluster is a no-op. p must occupy its
// slot (use Place for unoccupied slots).
func (c *Config) Move(p int, to CID) CID {
	from := c.assign[p]
	if from == to {
		return from
	}
	if from == None {
		panic(fmt.Sprintf("cluster: move of unplaced peer %d", p))
	}
	if to < 0 || int(to) >= len(c.members) {
		panic(fmt.Sprintf("cluster: move to invalid cluster %d", to))
	}
	c.version++
	c.leave(p)
	c.join(p, to)
	return from
}

// Clone deep-copies the configuration. The member lists are cut from
// one allocation, each clipped to its length, so a cluster the copy
// grows moves its list out instead of writing into its neighbour's.
func (c *Config) Clone() *Config {
	cp := &Config{
		assign:  append([]CID(nil), c.assign...),
		members: make([][]int, len(c.members)),
		pos:     append([]int(nil), c.pos...),
		live:    c.live,
		filled:  c.filled,
		version: c.version,
	}
	arena := make([]int, 0, c.live)
	for i, m := range c.members {
		if len(m) > 0 {
			start := len(arena)
			arena = append(arena, m...)
			cp.members[i] = arena[start:len(arena):len(arena)]
		}
	}
	return cp
}

// Assignment returns a copy of the peer->cluster mapping.
func (c *Config) Assignment() []CID {
	return append([]CID(nil), c.assign...)
}

// Hash returns an order-sensitive FNV-1a hash of the assignment,
// used to detect cycles in best-response dynamics.
func (c *Config) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, cid := range c.assign {
		v := uint32(cid)
		for s := 0; s < 32; s += 8 {
			h ^= uint64((v >> s) & 0xff)
			h *= prime
		}
	}
	return h
}

// CanonicalHash hashes the *partition* rather than the labeled
// assignment: two configurations that group peers identically but use
// different cluster IDs hash equally. Cluster labels are irrelevant to
// all costs, so cycle detection uses this form.
func (c *Config) CanonicalHash() uint64 {
	relabel := make(map[CID]CID, len(c.members))
	canon := make([]CID, len(c.assign))
	next := CID(0)
	for p, cid := range c.assign {
		if cid == None {
			canon[p] = None
			continue
		}
		nc, ok := relabel[cid]
		if !ok {
			nc = next
			relabel[cid] = nc
			next++
		}
		canon[p] = nc
	}
	tmp := Config{assign: canon}
	return tmp.Hash()
}

// Sizes returns the sorted sizes of all non-empty clusters.
func (c *Config) Sizes() []int {
	var out []int
	for _, m := range c.members {
		if len(m) > 0 {
			out = append(out, len(m))
		}
	}
	sort.Ints(out)
	return out
}

// Validate checks internal consistency; property tests drive random
// move sequences through it.
func (c *Config) Validate() error {
	if len(c.assign) != len(c.pos) || len(c.assign) != len(c.members) {
		return fmt.Errorf("cluster: inconsistent lengths")
	}
	seen := 0
	for cid, m := range c.members {
		for i, p := range m {
			if p < 0 || p >= len(c.assign) {
				return fmt.Errorf("cluster %d has invalid member %d", cid, p)
			}
			if c.assign[p] != CID(cid) {
				return fmt.Errorf("peer %d in members of %d but assigned to %d", p, cid, c.assign[p])
			}
			if c.pos[p] != i {
				return fmt.Errorf("peer %d pos %d != index %d", p, c.pos[p], i)
			}
			seen++
		}
	}
	for p, cid := range c.assign {
		if cid == None && c.pos[p] != -1 {
			return fmt.Errorf("unplaced peer %d has pos %d, want -1", p, c.pos[p])
		}
	}
	if seen != c.live {
		return fmt.Errorf("members cover %d peers, want live count %d", seen, c.live)
	}
	if n := len(c.AppendNonEmpty(nil)); n != c.filled {
		return fmt.Errorf("%d non-empty clusters, want recorded count %d", n, c.filled)
	}
	return nil
}
