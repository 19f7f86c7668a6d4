package asyncnet

import "container/heap"

// actorID addresses an actor: 0 is the coordinator, cid+1 the
// representative of cluster cid.
type actorID int32

const coordID actorID = 0

// handler is an actor's message entry point. Handlers run one at a
// time on the scheduler's loop, so actors share no goroutines and need
// no locks.
type handler interface {
	handle(m Message)
}

type vevent struct {
	at  uint64
	seq uint64
	to  actorID
	m   Message
}

type veventHeap []vevent

func (h veventHeap) Len() int { return len(h) }
func (h veventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h veventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *veventHeap) Push(x any)   { *h = append(*h, x.(vevent)) }
func (h *veventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// vsched is the deterministic virtual-time scheduler: a single-threaded
// event loop over a (time, sequence) priority queue. Ties on time
// resolve in send order, so zero-latency delivery is FIFO and every
// schedule is a pure function of the seed and the inputs.
type vsched struct {
	events veventHeap
	seq    uint64
	clock  uint64
	actors map[actorID]handler
}

func newVSched() *vsched {
	return &vsched{actors: make(map[actorID]handler)}
}

func (s *vsched) register(id actorID, h handler) { s.actors[id] = h }

// deliverAfter schedules m for delivery to `to` after delay ticks.
func (s *vsched) deliverAfter(to actorID, m Message, delay int64) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, vevent{at: s.clock + uint64(delay), seq: s.seq, to: to, m: m})
}

// run delivers events in (time, sequence) order until stop reports
// true or the queue drains.
func (s *vsched) run(stop func() bool) {
	for !stop() && len(s.events) > 0 {
		e := heap.Pop(&s.events).(vevent)
		s.clock = e.at
		if h, ok := s.actors[e.to]; ok {
			h.handle(e.m)
		}
	}
}
