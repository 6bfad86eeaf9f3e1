package bus

import (
	"math/rand"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// echoComp becomes ready instantly and records everything it receives.
type echoComp struct {
	received []*xmlcmd.Message
}

func (e *echoComp) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }
func (e *echoComp) Receive(ctx proc.Context, m *xmlcmd.Message) {
	e.received = append(e.received, m)
	if m.Kind() == xmlcmd.KindPing {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

type rig struct {
	k   *sim.Kernel
	mgr *proc.Manager
	bus *Sim
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New(5)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(2)), trace.NewLog())
	b := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(b)
	if err := mgr.Register("mbus", BrokerHandler(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mgr: mgr, bus: b}
}

func (r *rig) addEcho(t *testing.T, name string) *echoComp {
	t.Helper()
	e := &echoComp{}
	if err := r.mgr.Register(name, func() proc.Handler { return e }); err != nil {
		t.Fatal(err)
	}
	return e
}

func (r *rig) startAll(t *testing.T) {
	t.Helper()
	if err := r.mgr.StartBatch(r.mgr.Names()); err != nil {
		t.Fatal(err)
	}
	if err := r.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTwoHopRouting(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "hello", ""))
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 1 || a.received[0].Event.Name != "hello" {
		t.Fatalf("a received %v", a.received)
	}
	if r.bus.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", r.bus.Stats())
	}
}

func TestRoutingLatencyIsTwoHops(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	start := r.k.Now()
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "x", ""))
	_ = r.k.RunWhile(func() bool { return len(a.received) == 0 })
	if got := r.k.Now().Sub(start); got != 2*hopLatency {
		t.Fatalf("delivery took %v, want %v (two hops)", got, 2*hopLatency)
	}
}

func TestBrokerDownDropsTraffic(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	if err := r.mgr.Kill("mbus", "test kill"); err != nil {
		t.Fatal(err)
	}
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "lost", ""))
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 0 {
		t.Fatal("message delivered through dead broker")
	}
	if r.bus.Stats().DroppedBroker != 1 {
		t.Fatalf("stats = %+v", r.bus.Stats())
	}
}

func TestBrokerStartingDropsTraffic(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	_ = r.mgr.Restart([]string{"mbus"}) // broker back to Starting
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "lost", ""))
	_ = r.k.RunFor(10 * time.Millisecond)
	if len(a.received) != 0 {
		t.Fatal("message delivered through starting broker")
	}
}

func TestMessagesToBrokerAreSingleHop(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	r.startAll(t)
	r.bus.Send(xmlcmd.NewPing("fd", "mbus", 1, 9))
	_ = r.k.RunFor(time.Second)
	if len(fd.received) != 1 || fd.received[0].Kind() != xmlcmd.KindPong {
		t.Fatalf("fd received %v", fd.received)
	}
	if fd.received[0].Pong.Nonce != 9 {
		t.Fatal("broker pong nonce mismatch")
	}
}

func TestBrokerNotReadyIgnoresPing(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	r.startAll(t)
	_ = r.mgr.Restart([]string{"mbus"})
	// Ping while broker is starting: delivered to handler but unanswered.
	r.bus.Send(xmlcmd.NewPing("fd", "mbus", 2, 1))
	_ = r.k.RunFor(20 * time.Millisecond)
	if len(fd.received) != 0 {
		t.Fatal("starting broker answered a ping")
	}
}

func TestDirectLinkBypassesBroker(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	r.addEcho(t, "rec")
	r.startAll(t)
	_ = r.mgr.Kill("mbus", "broker down")
	r.bus.Send(new(xmlcmd.Pool).Event("rec", "fd", 1, "report", ""))
	_ = r.k.RunFor(time.Second)
	if len(fd.received) != 1 {
		t.Fatal("direct link message lost while broker down")
	}
	if r.bus.Stats().DirectSent != 1 {
		t.Fatalf("stats = %+v", r.bus.Stats())
	}
}

func TestDeadDestinationDrops(t *testing.T) {
	r := newRig(t)
	r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	_ = r.mgr.Kill("a", "dead dest")
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "x", ""))
	_ = r.k.RunFor(time.Second)
	if r.bus.Stats().DroppedDest != 1 {
		t.Fatalf("stats = %+v", r.bus.Stats())
	}
}

func TestPingPongRoundTripOverBus(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	r.addEcho(t, "rtu")
	r.startAll(t)
	r.bus.Send(xmlcmd.NewPing("fd", "rtu", 5, 123))
	_ = r.k.RunFor(time.Second)
	if len(fd.received) != 1 || fd.received[0].Pong == nil || fd.received[0].Pong.Nonce != 123 {
		t.Fatalf("fd received %v", fd.received)
	}
}

// quietComp becomes ready instantly and never replies — so Send alloc
// measurements see only the fabric, not handler responses.
type quietComp struct{}

func (quietComp) Start(ctx proc.Context)                { ctx.After(0, ctx.Ready) }
func (quietComp) Receive(proc.Context, *xmlcmd.Message) {}

// TestSendAllocsRouted pins the closure-free routing path: once the
// delivery-event pool and kernel arena are warm, a routed Send (two hops
// through the broker) plus its delivery allocates nothing.
func TestSendAllocsRouted(t *testing.T) {
	k := sim.New(5)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(2)), trace.NewLog())
	b := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(b)
	if err := mgr.Register("mbus", BrokerHandler(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("a", func() proc.Handler { return quietComp{} }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StartBatch(mgr.Names()); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	m := &xmlcmd.Message{From: "b", To: "a", Seq: 1, Event: &xmlcmd.Event{Name: "x"}} // unowned: sent again and again
	warm := func() {
		b.Send(m)
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("routed Send allocates %.1f objects/op, want 0", allocs)
	}
	if b.Stats().Delivered == 0 {
		t.Fatal("no message delivered; the measurement is vacuous")
	}
}

// TestSendAllocsDirect pins the same property for dedicated-link traffic.
func TestSendAllocsDirect(t *testing.T) {
	k := sim.New(5)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(2)), trace.NewLog())
	b := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(b)
	if err := mgr.Register("fd", func() proc.Handler { return quietComp{} }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("rec", func() proc.Handler { return quietComp{} }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StartBatch(mgr.Names()); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	m := &xmlcmd.Message{From: "rec", To: "fd", Seq: 1, Event: &xmlcmd.Event{Name: "report"}} // unowned: sent again and again
	warm := func() {
		b.Send(m)
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("direct-link Send allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBrokerDropReleasesEvent exercises the pool's broker-drop path: a
// message lost at a dead broker must return its delivery event to the pool
// (steady-state drops allocate nothing either).
func TestBrokerDropReleasesEvent(t *testing.T) {
	r := newRig(t)
	r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	if err := r.mgr.Kill("mbus", "test kill"); err != nil {
		t.Fatal(err)
	}
	m := &xmlcmd.Message{From: "b", To: "a", Seq: 1, Event: &xmlcmd.Event{Name: "lost"}} // unowned: sent again and again
	warm := func() {
		r.bus.Send(m)
		if err := r.k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("dropped Send allocates %.1f objects/op, want 0", allocs)
	}
	if got := r.bus.Stats().DroppedBroker; got == 0 {
		t.Fatal("no broker drops recorded; the measurement is vacuous")
	}
}

// BenchmarkSendRouted measures the two-hop fabric path end to end.
func BenchmarkSendRouted(b *testing.B) {
	k := sim.New(5)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(2)), trace.NewLog())
	bus := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(bus)
	if err := mgr.Register("mbus", BrokerHandler(100*time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	if err := mgr.Register("a", func() proc.Handler { return quietComp{} }); err != nil {
		b.Fatal(err)
	}
	if err := mgr.StartBatch(mgr.Names()); err != nil {
		b.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		b.Fatal(err)
	}
	m := &xmlcmd.Message{From: "b", To: "a", Seq: 1, Event: &xmlcmd.Event{Name: "x"}} // unowned: sent again and again
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Send(m)
		if err := k.RunFor(20 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendDirect measures the dedicated-link path.
func BenchmarkSendDirect(b *testing.B) {
	k := sim.New(5)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(2)), trace.NewLog())
	bus := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(bus)
	if err := mgr.Register("fd", func() proc.Handler { return quietComp{} }); err != nil {
		b.Fatal(err)
	}
	if err := mgr.Register("rec", func() proc.Handler { return quietComp{} }); err != nil {
		b.Fatal(err)
	}
	if err := mgr.StartBatch(mgr.Names()); err != nil {
		b.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		b.Fatal(err)
	}
	m := &xmlcmd.Message{From: "rec", To: "fd", Seq: 1, Event: &xmlcmd.Event{Name: "report"}} // unowned: sent again and again
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Send(m)
		if err := k.RunFor(20 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
