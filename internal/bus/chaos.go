package bus

import (
	"fmt"

	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file is the bus chaos layer: a seeded, deterministic model of a
// *degraded* (rather than dead) network. The paper's failure model is
// clean fail-silent over a perfect mbus; real fabrics lose, delay and
// duplicate frames without any component being at fault. The chaos layer
// applies one fabric-wide ChaosProfile to every physical hop of the
// simulated fabric so experiments can measure how the detection/recovery
// stack behaves as channel quality degrades.
//
// Determinism: all chaos draws come from the process manager's RNG — the
// same stream every other simulated decision uses — and happen on the
// single kernel dispatch context, so a seeded trial is bit-identical run
// to run (and across the parallel runner). When no profile is installed
// the delivery path takes the exact pre-chaos schedule with zero extra
// RNG draws and zero allocations, which is what keeps the Table 2/4
// golden traces byte-identical.

// ChaosProfile describes the degradation of every hop. The zero value is
// a perfect fabric.
type ChaosProfile struct {
	// Loss is the per-hop probability a frame is silently dropped.
	// A routed message crosses two hops (sender→mbus, mbus→dest) and is
	// exposed twice; dedicated-link traffic crosses one.
	Loss float64
	// Dup is the per-hop probability a frame is delivered twice (e.g. a
	// retransmission whose original was not actually lost). Each copy is
	// then subject to Loss and Jitter independently.
	Dup float64
	// Jitter, when non-nil, adds a sampled extra delay to the hop's base
	// latency. Because each frame samples independently, a large jitter
	// reorders frames — the bus makes no FIFO promise under chaos.
	Jitter fault.Law
}

// active reports whether the profile perturbs anything.
func (p *ChaosProfile) active() bool {
	return p != nil && (p.Loss > 0 || p.Dup > 0 || p.Jitter != nil)
}

// Validate rejects probabilities outside [0, 1), NaN included.
func (p *ChaosProfile) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.Loss >= 0 && p.Loss < 1) {
		return fmt.Errorf("bus: chaos loss %v outside [0, 1)", p.Loss)
	}
	if !(p.Dup >= 0 && p.Dup < 1) {
		return fmt.Errorf("bus: chaos dup %v outside [0, 1)", p.Dup)
	}
	return nil
}

// SetChaos installs (or, with nil, clears) the fabric-wide profile.
func (b *Sim) SetChaos(p *ChaosProfile) {
	if !p.active() {
		p = nil
	}
	b.chaos = p
}

// sendHop schedules one physical hop of a message, applying the fabric's
// chaos profile. With no profile the hop is the historical clean path: it
// rides the FIFO hop queue, with no RNG draws.
func (b *Sim) sendHop(m *xmlcmd.Message, hop int) {
	p := b.chaos
	if p == nil {
		b.queueHop(m, hop)
		return
	}
	rng := b.mgr.Rand()
	copies := 1
	if p.Dup > 0 && rng.Float64() < p.Dup {
		copies = 2
		b.stats.Duplicated++
	}
	scheduled := 0
	for i := 0; i < copies; i++ {
		if p.Loss > 0 && rng.Float64() < p.Loss {
			b.stats.DroppedChaos++
			continue
		}
		d := hopLatency
		if p.Jitter != nil {
			d += p.Jitter.Sample(rng)
		}
		b.kern.Schedule(d, b.acquire(m, hop))
		scheduled++
	}
	// Message-recycling bookkeeping: sendHop was handed one in-flight
	// obligation for m and minted `scheduled` hop chains. Zero means the
	// message dies here; two means an extra obligation outlives this call
	// and must be recorded so only the final finish recycles the envelope.
	switch scheduled {
	case 0:
		b.finish(m)
	case 2:
		if b.extraRefs == nil {
			b.extraRefs = make(map[*xmlcmd.Message]int)
		}
		b.extraRefs[m]++
	}
}
