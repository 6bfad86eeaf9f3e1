package bus

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// countingRecycler records every message handed back by the fabric.
type countingRecycler struct {
	recycled []*xmlcmd.Message
}

func (c *countingRecycler) RecycleMessage(m *xmlcmd.Message) {
	c.recycled = append(c.recycled, m)
}

func (c *countingRecycler) msg(from, to string, seq uint64) *xmlcmd.Message {
	m := new(xmlcmd.Pool).Event(from, to, seq, "probe", "")
	m.Owner = c
	return m
}

// TestRecycleOnDelivery: a delivered owned message comes back exactly once,
// after the handler ran.
func TestRecycleOnDelivery(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)

	var rec countingRecycler
	r.bus.Send(rec.msg("b", "a", 1))
	_ = r.k.RunFor(time.Second)

	if len(a.received) != 1 {
		t.Fatalf("a received %d messages", len(a.received))
	}
	if len(rec.recycled) != 1 || rec.recycled[0] != a.received[0] {
		t.Fatalf("recycled %v, want the delivered message once", rec.recycled)
	}
}

// TestRecycleOnBrokerDrop: a message lost at a dead broker is still
// returned to its owner.
func TestRecycleOnBrokerDrop(t *testing.T) {
	r := newRig(t)
	r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	_ = r.mgr.Kill("mbus", "test kill")

	var rec countingRecycler
	r.bus.Send(rec.msg("b", "a", 1))
	_ = r.k.RunFor(time.Second)

	if r.bus.Stats().DroppedBroker != 1 {
		t.Fatalf("stats = %+v", r.bus.Stats())
	}
	if len(rec.recycled) != 1 {
		t.Fatalf("recycled %d, want 1 (dropped message must come back)", len(rec.recycled))
	}
}

// TestRecycleUnderChaos: with loss and duplication the fabric must return
// every owned message exactly once — never zero (pool leak), never twice
// (aliasing corruption) — regardless of how many copies were in flight.
func TestRecycleUnderChaos(t *testing.T) {
	r := newRig(t)
	r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	r.bus.SetChaos(&ChaosProfile{
		Loss:   0.3,
		Dup:    0.3,
		Jitter: fault.Uniform{Lo: 0, Hi: 2 * time.Millisecond},
	})

	var rec countingRecycler
	const n = 2000
	sent := make(map[*xmlcmd.Message]bool, n)
	for i := 0; i < n; i++ {
		m := rec.msg("b", "a", uint64(i))
		sent[m] = true
		r.bus.Send(m)
		_ = r.k.RunFor(time.Millisecond)
	}
	_ = r.k.RunFor(time.Second)

	if len(rec.recycled) != n {
		t.Fatalf("recycled %d of %d owned messages", len(rec.recycled), n)
	}
	seen := make(map[*xmlcmd.Message]bool, n)
	for _, m := range rec.recycled {
		if !sent[m] {
			t.Fatal("recycled a message the owner never sent")
		}
		if seen[m] {
			t.Fatal("message recycled twice")
		}
		seen[m] = true
	}
	if len(r.bus.extraRefs) != 0 {
		t.Fatalf("extraRefs not drained: %d entries", len(r.bus.extraRefs))
	}
	st := r.bus.Stats()
	if st.Duplicated == 0 || st.DroppedChaos == 0 {
		t.Fatalf("chaos did not engage: %+v", st)
	}
}

// TestUnownedMessagesUnaffected: messages without an owner flow exactly as
// before — no recycler calls, no refcount entries.
func TestUnownedMessagesUnaffected(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	r.bus.SetChaos(&ChaosProfile{Dup: 0.5})
	for i := 0; i < 100; i++ {
		r.bus.Send(new(xmlcmd.Pool).Event("b", "a", uint64(i), "x", ""))
	}
	_ = r.k.RunFor(time.Second)
	if len(a.received) < 100 {
		t.Fatalf("a received %d", len(a.received))
	}
	if len(r.bus.extraRefs) != 0 {
		t.Fatalf("extraRefs leaked %d entries for unowned traffic", len(r.bus.extraRefs))
	}
}
