package asyncnet

import (
	"fmt"

	"repro/internal/stats"
)

// FaultPlan describes the injected link faults. All latencies are in
// virtual scheduler ticks. The zero value is a perfect network:
// instant, ordered, lossless.
type FaultPlan struct {
	// LatencyMean and LatencyJitter give each delivery a latency drawn
	// uniformly from [mean-jitter, mean+jitter], clamped at zero.
	LatencyMean   int
	LatencyJitter int
	// ReorderProb is the chance a message is held back by an extra
	// delay (how reordering manifests: a held message is overtaken by
	// later sends).
	ReorderProb float64
	// DropProb is the chance a message is silently lost.
	DropProb float64
	// StragglerFrac is the fraction of representatives whose outgoing
	// messages are slowed by StragglerFactor (default 8 when a
	// fraction is set and the factor is unset).
	StragglerFrac   float64
	StragglerFactor int
}

// zero reports whether the plan injects nothing.
func (f FaultPlan) zero() bool {
	return f.LatencyMean == 0 && f.LatencyJitter == 0 && f.ReorderProb == 0 &&
		f.DropProb == 0 && f.StragglerFrac == 0
}

// transport carries every inter-actor message. Each send round-trips
// the message through the wire codec (the codec is load-bearing, not
// decorative), samples the fault plan from a seeded RNG, and hands the
// surviving message to the scheduler with its sampled delay. Sends
// happen in deterministic order on the scheduler's one thread, so the
// RNG stream — and with it every drop, delay, and reordering — is a
// pure function of the seed.
type transport struct {
	n    *Net
	plan FaultPlan
	rng  *stats.RNG
	// straggler[id] marks actors whose sends are slowed; index 0 (the
	// coordinator) never straggles.
	straggler []bool
}

func newTransport(n *Net, plan FaultPlan, rng *stats.RNG, numReps int) *transport {
	t := &transport{n: n, plan: plan, rng: rng, straggler: make([]bool, numReps+1)}
	if plan.StragglerFrac > 0 {
		for i := 1; i < len(t.straggler); i++ {
			t.straggler[i] = rng.Bool(plan.StragglerFrac)
			if t.straggler[i] {
				n.rpt.Stragglers++
			}
		}
	}
	return t
}

// send encodes, faults, and schedules one message.
func (t *transport) send(from, to actorID, m Message) {
	m.From, m.To = int32(from), int32(to)
	enc := AppendMessage(nil, m)
	dec, err := DecodeMessage(enc)
	if err != nil {
		panic(fmt.Sprintf("asyncnet: codec round-trip failed: %v", err))
	}
	delay, drop, reorder := t.sample(from)
	if drop {
		t.n.rpt.Dropped++
		return
	}
	if reorder {
		t.n.rpt.Reordered++
	}
	t.n.rpt.Delivered++
	t.n.sched.deliverAfter(to, dec, delay)
}

// sample draws one delivery's fate from the plan.
func (t *transport) sample(from actorID) (delay int64, drop, reorder bool) {
	if t.plan.zero() {
		return 0, false, false
	}
	p := t.plan
	if p.DropProb > 0 && t.rng.Bool(p.DropProb) {
		return 0, true, false
	}
	delay = int64(p.LatencyMean)
	if p.LatencyJitter > 0 {
		delay += int64(t.rng.Intn(2*p.LatencyJitter+1) - p.LatencyJitter)
	}
	if delay < 0 {
		delay = 0
	}
	if int(from) < len(t.straggler) && t.straggler[from] {
		delay *= int64(p.StragglerFactor)
	}
	if p.ReorderProb > 0 && t.rng.Bool(p.ReorderProb) {
		delay += int64(t.rng.Intn(4*(p.LatencyMean+1) + 1))
		reorder = true
	}
	return delay, false, reorder
}
