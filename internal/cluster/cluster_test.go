package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestThetaMonotonicity(t *testing.T) {
	for _, th := range []Theta{LinearTheta(), LogTheta(), SqrtTheta(), ConstTheta()} {
		prev := th.F(1)
		if prev <= 0 {
			t.Errorf("%s: theta(1)=%g not positive", th.Name, prev)
		}
		for n := 2; n <= 300; n++ {
			v := th.F(n)
			if v < prev {
				t.Errorf("%s: theta not monotone at %d: %g < %g", th.Name, n, v, prev)
				break
			}
			prev = v
		}
	}
}

func TestThetaLinearValues(t *testing.T) {
	th := LinearTheta()
	if th.F(20) != 20 {
		t.Fatalf("linear theta(20)=%g", th.F(20))
	}
}

func TestNewSingletons(t *testing.T) {
	c := NewSingletons(5)
	for p := 0; p < 5; p++ {
		if c.ClusterOf(p) != CID(p) {
			t.Fatalf("peer %d in cluster %d", p, c.ClusterOf(p))
		}
		if c.Size(CID(p)) != 1 {
			t.Fatalf("cluster %d size %d", p, c.Size(CID(p)))
		}
	}
	if c.NumNonEmpty() != 5 {
		t.Fatal("NumNonEmpty")
	}
	if _, ok := c.EmptyCluster(); ok {
		t.Fatal("singletons have no empty slot")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignmentAndMove(t *testing.T) {
	c := FromAssignment([]CID{0, 0, 1, 1})
	if c.Size(0) != 2 || c.Size(1) != 2 {
		t.Fatal("sizes")
	}
	from := c.Move(2, 0)
	if from != 1 {
		t.Fatalf("Move returned %d", from)
	}
	if c.Size(0) != 3 || c.Size(1) != 1 || c.ClusterOf(2) != 0 {
		t.Fatal("post-move state")
	}
	// No-op move.
	if got := c.Move(2, 0); got != 0 {
		t.Fatalf("no-op move returned %d", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMembersSortedAndRepresentative(t *testing.T) {
	c := FromAssignment([]CID{1, 1, 1, 0})
	m := c.Members(1)
	if len(m) != 3 || m[0] != 0 || m[1] != 1 || m[2] != 2 {
		t.Fatalf("members %v", m)
	}
	if c.Representative(1) != 0 {
		t.Fatal("representative")
	}
	if c.Representative(2) != -1 {
		t.Fatal("empty representative")
	}
}

func TestEmptyClusterDiscovery(t *testing.T) {
	c := FromAssignment([]CID{0, 0, 0})
	cid, ok := c.EmptyCluster()
	if !ok || cid != 1 {
		t.Fatalf("EmptyCluster = %d, %v", cid, ok)
	}
	c.Move(1, 1)
	cid, ok = c.EmptyCluster()
	if !ok || cid != 2 {
		t.Fatalf("after move: %d, %v", cid, ok)
	}
}

func TestNonEmptyAndSizes(t *testing.T) {
	c := FromAssignment([]CID{3, 3, 0, 0, 0})
	ne := c.NonEmpty()
	if len(ne) != 2 || ne[0] != 0 || ne[1] != 3 {
		t.Fatalf("NonEmpty %v", ne)
	}
	sz := c.Sizes()
	if len(sz) != 2 || sz[0] != 2 || sz[1] != 3 {
		t.Fatalf("Sizes %v", sz)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := FromAssignment([]CID{0, 1, 2})
	cp := c.Clone()
	cp.Move(0, 2)
	if c.ClusterOf(0) != 0 {
		t.Fatal("clone mutation leaked")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHashesDistinguishPartitions(t *testing.T) {
	a := FromAssignment([]CID{0, 0, 1})
	b := FromAssignment([]CID{0, 1, 1})
	if a.Hash() == b.Hash() {
		t.Fatal("different assignments share Hash")
	}
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Fatal("different partitions share CanonicalHash")
	}
}

func TestCanonicalHashIgnoresLabels(t *testing.T) {
	a := FromAssignment([]CID{0, 0, 1, 2})
	b := FromAssignment([]CID{3, 3, 0, 1})
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("relabeled partition hashes differ")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("labeled hashes should differ")
	}
}

func TestValidateUnderRandomMoves(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(20)
		c := NewSingletons(n)
		for op := 0; op < 60; op++ {
			c.Move(rng.Intn(n), CID(rng.Intn(n)))
			if err := c.Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		// Every peer accounted for exactly once.
		total := 0
		for _, cid := range c.NonEmpty() {
			total += c.Size(cid)
		}
		return total == n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignmentValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid cid")
		}
	}()
	FromAssignment([]CID{0, 5})
}

func TestMoveValidation(t *testing.T) {
	c := NewSingletons(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid target")
		}
	}()
	c.Move(0, 99)
}

// TestNumNonEmptyMatchesScan pins the incrementally kept non-empty
// count against a scan of the member lists across randomized mutation
// sequences, including through FromAssignment and Clone.
func TestNumNonEmptyMatchesScan(t *testing.T) {
	scan := func(c *Config) int {
		n := 0
		for cid := 0; cid < c.Cmax(); cid++ {
			if c.Size(CID(cid)) > 0 {
				n++
			}
		}
		return n
	}
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(12)
		assign := make([]CID, n)
		for p := range assign {
			assign[p] = CID(rng.Intn(n+1) - 1) // None included
		}
		c := FromAssignment(assign)
		for op := 0; op < 80; op++ {
			p := rng.Intn(c.NumPeers())
			switch k := rng.Intn(5); {
			case k == 0:
				c.AddSlot()
			case k == 1:
				c = c.Clone()
			case k == 2:
				c = FromAssignment(c.Assignment())
			case c.IsPlaced(p) && rng.Intn(3) == 0:
				c.Unplace(p)
			case c.IsPlaced(p):
				c.Move(p, CID(rng.Intn(c.Cmax())))
			default:
				c.Place(p, CID(rng.Intn(c.Cmax())))
			}
			if got, want := c.NumNonEmpty(), scan(c); got != want {
				t.Logf("seed %d op %d: NumNonEmpty %d, scan %d", seed, op, got, want)
				return false
			}
			if err := c.Validate(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
