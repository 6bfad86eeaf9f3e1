// Package bus implements Mercury's software message bus.
//
// All high-level XML command traffic flows over the bus through the mbus
// broker component: sender → mbus → recipient. When mbus is down, messages
// are lost — which is why mbus itself is monitored and why an mbus failure
// looks, to a naive detector, like everything failing at once. The failure
// detector and the recoverer exchange traffic over a separate dedicated
// link that does not transit mbus, mirroring the paper's isolation choice.
//
// Two implementations exist: Sim (simulated fabric with a latency model,
// deterministic under the event kernel) and the TCP broker/client in
// tcp.go used by the real-time runtime.
package bus

import (
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Stats counts a simulated fabric's traffic. Tests and the benchmark read
// it; it is the fabric's only count.
type Stats struct {
	Sent          int
	Delivered     int
	DroppedBroker int // lost because mbus was not serving
	DroppedDest   int // lost because the destination was not accepting
	DirectSent    int // messages on dedicated links
	DroppedChaos  int // lost to the chaos layer's per-hop loss
	Duplicated    int // hops duplicated by the chaos layer
}

// Sim is the simulated message fabric. Messages between ordinary
// components take two hops (to the broker, then to the destination), each
// costing hopLatency; messages on the dedicated link (xmlcmd.Dedicated)
// take one hop.
//
// Like the proc.Manager it delivers into, Sim is not internally
// synchronised: Send and the scheduled hops must run on one dispatch
// context (the event kernel), which also makes the delivery-event pool
// safe.
type Sim struct {
	kern   *sim.Kernel
	mgr    *proc.Manager
	broker string

	// brokerRef caches a stable handle for the broker's serving check,
	// resolved lazily once the broker registers.
	brokerRef proc.Ref

	// pool recycles delivery events so steady-state routing allocates
	// nothing: each in-flight message holds one event through both hops.
	// Only chaos-perturbed hops use events; clean hops ride hopQ.
	pool []*deliveryEvent

	// hopQ is the clean-path hop queue. Every clean hop is due exactly
	// hopLatency after it is sent, so due times are non-decreasing in send
	// order and the queue is FIFO by construction. One self-rescheduling
	// pump event drains it, which keeps the kernel heap at a handful of
	// entries no matter how many messages are in flight — at a million
	// requests/s the heap would otherwise hold tens of thousands of hop
	// events and heap maintenance dominates the whole simulation.
	hopQ    []hopEntry
	hopHead int
	pumpOn  bool
	pump    hopPump
	// firstHops is where hopQ starts, in the fabric's own allocation: a
	// station has at most 28 clean hops in flight (Table-4 grid, every
	// trial), so its queue never grows.
	firstHops [32]hopEntry

	// extraRefs counts in-flight copies of a message beyond the structural
	// one, minted by chaos duplication. It is consulted only when non-empty,
	// so the clean fabric's recycling path never touches the map — which is
	// what keeps message recycling free on the request plane's hot path.
	extraRefs map[*xmlcmd.Message]int

	// chaos models a degraded fabric (see chaos.go); nil means the
	// historical perfect fabric.
	chaos *ChaosProfile

	stats Stats
}

var _ proc.Transport = (*Sim)(nil)

// hopLatency is the one-hop propagation + processing delay.
const hopLatency = 5 * time.Millisecond

// NewSim builds a simulated bus routed through the named broker component.
// The fabric runs on the simulation kernel behind clk; any other clock is
// a programming error and panics.
func NewSim(clk clock.Clock, mgr *proc.Manager, broker string) *Sim {
	ks, ok := clk.(clock.Sim)
	if !ok {
		panic("bus: NewSim needs a clock.Sim")
	}
	b := &Sim{
		kern:   ks.K,
		mgr:    mgr,
		broker: broker,
	}
	b.hopQ = b.firstHops[:0]
	return b
}

// brokerServing tests the broker's serving state through the cached
// process handle, falling back to resolution until the broker registers.
func (b *Sim) brokerServing() bool {
	if !b.brokerRef.Valid() {
		b.brokerRef = b.mgr.Ref(b.broker)
	}
	return b.brokerRef.Serving()
}

// Stats returns a copy of the bus counters.
func (b *Sim) Stats() Stats { return b.stats }

// Send routes a message. Sends never fail synchronously: loss is silent,
// exactly like writing into a TCP connection whose peer has crashed.
//
// A message with a non-nil Owner is owned by the fabric from this call
// until the owner's RecycleMessage fires: the sender must not mutate or
// resend it in between.
func (b *Sim) Send(m *xmlcmd.Message) {
	b.stats.Sent++
	if xmlcmd.Dedicated(m.From, m.To) {
		b.stats.DirectSent++
		b.sendHop(m, hopDeliver)
		return
	}
	// Hop 1: reach the broker. Messages to or from the broker itself are
	// single-hop (the broker terminates them locally).
	if m.To == b.broker || m.From == b.broker {
		b.sendHop(m, hopDeliver)
		return
	}
	b.sendHop(m, hopBroker)
}

// Delivery hops.
const (
	// hopDeliver is the final hop: hand the message to its destination.
	hopDeliver = iota
	// hopBroker is the first hop of a routed message: the broker, if
	// serving, forwards to the destination; otherwise the message is lost.
	hopBroker
)

// deliveryEvent is one message's journey across the fabric, prebound with
// everything a hop needs so no closure is allocated per Send. The same
// event is rescheduled from the broker hop to the final hop and returned to
// the bus pool once the message is delivered or dropped.
type deliveryEvent struct {
	b   *Sim
	m   *xmlcmd.Message
	hop int
}

var _ clock.Event = (*deliveryEvent)(nil)

// Fire advances the message by one hop.
func (e *deliveryEvent) Fire() {
	b, m, hop := e.b, e.m, e.hop
	b.release(e)
	b.hop(m, hop)
}

// hop lands one physical hop: forward at the broker, or deliver.
func (b *Sim) hop(m *xmlcmd.Message, hop int) {
	if hop == hopBroker {
		// The broker must be accepting traffic to route. A broker that is
		// starting up or dead loses the message.
		if !b.brokerServing() {
			b.stats.DroppedBroker++
			b.finish(m)
			return
		}
		// Second hop, broker → destination.
		b.sendHop(m, hopDeliver)
		return
	}
	if b.mgr.Deliver(m) {
		b.stats.Delivered++
	} else {
		b.stats.DroppedDest++
	}
	b.finish(m)
}

// hopEntry is one clean hop queued for delivery at due (kernel
// nanoseconds — int64 so queue maintenance never touches time.Time).
type hopEntry struct {
	m   *xmlcmd.Message
	due int64
	hop int32
}

// queueHop appends a clean hop to the FIFO queue and arms the pump.
func (b *Sim) queueHop(m *xmlcmd.Message, hop int) {
	due := b.kern.NowNs() + int64(hopLatency)
	// Reclaim the drained prefix once it dominates the slice, amortised
	// O(1) per hop, so a queue that never empties does not grow forever.
	if b.hopHead > 1024 && b.hopHead*2 >= len(b.hopQ) {
		n := copy(b.hopQ, b.hopQ[b.hopHead:])
		b.hopQ = b.hopQ[:n]
		b.hopHead = 0
	}
	b.hopQ = append(b.hopQ, hopEntry{m: m, due: due, hop: int32(hop)})
	if !b.pumpOn {
		b.pumpOn = true
		b.pump.b = b
		b.kern.Schedule(hopLatency, &b.pump)
	}
}

// hopPump is the queue's single self-rescheduling kernel event: it drains
// every hop that has come due, then sleeps until the next one.
type hopPump struct{ b *Sim }

func (p *hopPump) Fire() {
	b := p.b
	now := b.kern.NowNs()
	for b.hopHead < len(b.hopQ) {
		e := b.hopQ[b.hopHead]
		if e.due > now {
			b.kern.Schedule(time.Duration(e.due-now), p)
			return
		}
		b.hopQ[b.hopHead].m = nil
		b.hopHead++
		b.hop(e.m, int(e.hop))
	}
	b.hopQ = b.hopQ[:0]
	b.hopHead = 0
	b.pumpOn = false
}

// finish retires one in-flight obligation for m: every scheduled hop chain
// ends in exactly one finish (delivered, dropped at a dead broker or
// destination, or lost to chaos before scheduling). The last obligation
// returns the message to its Owner pool. Delivery is synchronous
// (mgr.Deliver runs the handler inline), so by the time finish runs the
// receiver is done with the message.
func (b *Sim) finish(m *xmlcmd.Message) {
	if len(b.extraRefs) != 0 {
		if n, ok := b.extraRefs[m]; ok {
			if n <= 1 {
				delete(b.extraRefs, m)
			} else {
				b.extraRefs[m] = n - 1
			}
			return
		}
	}
	if m.Owner != nil {
		m.Owner.RecycleMessage(m)
	}
}

func (b *Sim) acquire(m *xmlcmd.Message, hop int) *deliveryEvent {
	if n := len(b.pool); n > 0 {
		e := b.pool[n-1]
		b.pool = b.pool[:n-1]
		e.m, e.hop = m, hop
		return e
	}
	return &deliveryEvent{b: b, m: m, hop: hop}
}

func (b *Sim) release(e *deliveryEvent) {
	e.m = nil
	b.pool = append(b.pool, e)
}

// BrokerHandler returns a proc.Handler factory for the mbus broker process:
// the component that, when serving, carries traffic. Its handler only
// answers liveness pings; the routing fast path lives in the fabric (Sim or
// the TCP broker), gated on this process's serving state.
func BrokerHandler(startup time.Duration) func() proc.Handler {
	return func() proc.Handler { return &brokerHandler{startup: startup} }
}

type brokerHandler struct {
	startup time.Duration
	ready   bool
	ctx     proc.Context
}

func (h *brokerHandler) Start(ctx proc.Context) {
	h.ctx = ctx
	ctx.Schedule(time.Duration(float64(h.startup)*ctx.Stretch()), (*brokerUp)(h))
}

// brokerUp ends the broker's startup.
type brokerUp brokerHandler

func (e *brokerUp) Fire() {
	h := (*brokerHandler)(e)
	h.ready = true
	h.ctx.Ready()
}

func (h *brokerHandler) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPing && h.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}
