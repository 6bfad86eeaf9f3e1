package bus

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

func TestChaosLossDropsEveryFrame(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)
	r.bus.SetChaos(&ChaosProfile{Loss: 0.999999999})
	for i := 0; i < 20; i++ {
		r.bus.Send(new(xmlcmd.Pool).Event("b", "a", uint64(i), "doomed", ""))
	}
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 0 {
		t.Fatalf("a received %d frames through a fully lossy fabric", len(a.received))
	}
	if got := r.bus.Stats().DroppedChaos; got < 20 {
		t.Fatalf("DroppedChaos = %d, want >= 20", got)
	}
}

func TestChaosDuplicationDeliversTwice(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	rec := r.addEcho(t, "rec")
	_ = fd
	r.startAll(t)
	// Dup ~1 on a single-hop dedicated link: exactly two copies arrive.
	r.bus.SetChaos(&ChaosProfile{Dup: 0.999999999})
	r.bus.Send(new(xmlcmd.Pool).Event("fd", "rec", 1, "twice", ""))
	_ = r.k.RunFor(time.Second)
	if len(rec.received) != 2 {
		t.Fatalf("rec received %d copies, want 2", len(rec.received))
	}
	if got := r.bus.Stats().Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
}

func TestChaosJitterReordersFrames(t *testing.T) {
	r := newRig(t)
	fd := r.addEcho(t, "fd")
	rec := r.addEcho(t, "rec")
	_ = fd
	r.startAll(t)
	r.bus.SetChaos(&ChaosProfile{Jitter: fault.Uniform{Lo: 0, Hi: 200 * time.Millisecond}})
	for i := 0; i < 32; i++ {
		r.bus.Send(new(xmlcmd.Pool).Event("fd", "rec", uint64(i), fmt.Sprintf("m%d", i), ""))
	}
	_ = r.k.RunFor(time.Second)
	if len(rec.received) != 32 {
		t.Fatalf("rec received %d frames, want 32", len(rec.received))
	}
	inOrder := true
	for i := 1; i < len(rec.received); i++ {
		if rec.received[i].Seq < rec.received[i-1].Seq {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("jitter up to 200ms on back-to-back sends never reordered anything")
	}
}

// chaosRun drives a fixed lossy workload and returns a trace of what was
// delivered plus the final stats, for determinism comparison.
func chaosRun(t *testing.T, seed int64) (string, Stats) {
	t.Helper()
	k := sim.New(seed)
	// The manager's RNG is the kernel's stream, exactly as mercury.NewSystem
	// wires it — chaos draws must follow the trial seed.
	mgr := proc.NewManager(clock.Sim{K: k}, k.Rand(), trace.NewLog())
	b := NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(b)
	if err := mgr.Register("mbus", BrokerHandler(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	a := &echoComp{}
	if err := mgr.Register("a", func() proc.Handler { return a }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("b", func() proc.Handler { return &echoComp{} }); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StartBatch(mgr.Names()); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	b.SetChaos(&ChaosProfile{Loss: 0.3, Dup: 0.2, Jitter: fault.Uniform{Lo: 0, Hi: 50 * time.Millisecond}})
	for i := 0; i < 64; i++ {
		b.Send(new(xmlcmd.Pool).Event("b", "a", uint64(i), fmt.Sprintf("m%d", i), ""))
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	var out string
	for _, m := range a.received {
		out += fmt.Sprintf("%d;", m.Seq)
	}
	return out, b.Stats()
}

func TestChaosDeterministicUnderSeed(t *testing.T) {
	trace1, stats1 := chaosRun(t, 42)
	trace2, stats2 := chaosRun(t, 42)
	if trace1 != trace2 || stats1 != stats2 {
		t.Fatalf("same seed diverged:\n%s %+v\n%s %+v", trace1, stats1, trace2, stats2)
	}
	trace3, _ := chaosRun(t, 43)
	if trace1 == trace3 {
		t.Fatal("different seeds produced identical chaos (suspiciously)")
	}
}

// TestChaosEnabledStillPooled pins that a chaotic fabric keeps using the
// delivery-event pool: steady-state sends allocate nothing even with
// loss, duplication and jitter all active.
func TestChaosEnabledStillPooled(t *testing.T) {
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
	b.SetChaos(&ChaosProfile{Loss: 0.2, Dup: 0.2, Jitter: fault.Uniform{Lo: 0, Hi: time.Millisecond}})
	m := &xmlcmd.Message{From: "b", To: "a", Seq: 1, Event: &xmlcmd.Event{Name: "x"}} // unowned: sent again and again
	warm := func() {
		b.Send(m)
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		warm()
	}
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("chaotic Send allocates %.1f objects/op, want 0", allocs)
	}
}

func TestChaosValidate(t *testing.T) {
	for _, bad := range []*ChaosProfile{{Loss: -0.1}, {Loss: 1}, {Loss: math.NaN()}, {Dup: -1}, {Dup: 1.5}, {Dup: math.NaN()}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("profile %+v validated", bad)
		}
	}
	var nilP *ChaosProfile
	if err := nilP.Validate(); err != nil {
		t.Fatalf("nil profile rejected: %v", err)
	}
	if err := (&ChaosProfile{Loss: 0.5, Dup: 0.1}).Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}
