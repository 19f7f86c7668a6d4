package gen

import (
	"testing"
	"time"
)

// small is a population the test can generate in a blink.
var small = Sizes{Peers: 60, Pool: 300, Batch: 8, Clients: 2, Draws: 64, Kits: 12, ZipfS: 1.1}

func digest(seed uint64) [32]byte {
	in := New(small, seed)
	return in.Digest(in.Schedule(2*time.Second, seed))
}

// TestSeedDeterminesInputs pins the generator's contract: one seed,
// one set of bytes; another seed, other bytes.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("seed 7 generated different inputs twice: %x and %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 generated the same inputs: %x", a)
	}
}

// TestScheduleShape pins the churn schedule: every second four joins,
// four leaves and one maintenance period, no victim named twice.
func TestScheduleShape(t *testing.T) {
	in := New(small, 3)
	evs := in.Schedule(2*time.Second, 3)
	count := map[EventKind]int{}
	victims := map[int]bool{}
	for i, e := range evs {
		count[e.Kind]++
		if i > 0 && e.At <= evs[i-1].At {
			t.Fatalf("event %d at %v is not after event %d at %v", i, e.At, i-1, evs[i-1].At)
		}
		if e.Kind == Leave {
			if victims[e.Arg] {
				t.Errorf("slot %d leaves twice", e.Arg)
			}
			victims[e.Arg] = true
		}
	}
	if count[Join] != 8 || count[Leave] != 8 || count[Reform] != 2 {
		t.Errorf("2 s of schedule hold %d joins, %d leaves, %d periods; want 8, 8, 2", count[Join], count[Leave], count[Reform])
	}
	if len(in.Pool) != small.Pool {
		t.Errorf("pool holds %d queries, want %d", len(in.Pool), small.Pool)
	}
}
