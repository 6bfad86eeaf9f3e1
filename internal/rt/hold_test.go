package rt

import (
	"fmt"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestHoldAcrossRestart drives the hold from an outside client on a
// Scale-50 IVm node, through the real fault path:
//
//   - a tune sent while rtu is Dead is dropped (fail-silent): never acked;
//   - tunes sent while rtu is Starting are parked, still parked when the
//     last OnReady listener of its ready move runs (the release is a
//     dispatcher post, not a listener), then acked in send order; an
//     outside ping sent with them is not held;
//   - tunes parked for an incarnation that is killed before it is ready
//     are dropped and counted, never acked;
//   - a point sent while str.track is down is acked after the sub
//     reattaches;
//   - rtu's restart takes the startup it takes without the hold.
func TestHoldAcrossRestart(t *testing.T) {
	const scale = 50
	node, err := StartNode(NodeConfig{ListenAddr: "127.0.0.1:0", Scale: scale, TreeName: "IVm", Seed: 1})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(node.Stop)
	rec := tracetest.Record(node.Log)
	g := dialGate(t, node)
	g.settles(t, 30, 8) // the gate is registered and every component answers

	// heldAtReady records, inside the last OnReady listener, how many
	// copies each ready move found still parked.
	track := proc.SubName(station.STR, station.SubTrack)
	holder := map[string]string{station.RTU: station.RTU, track: station.STR}
	heldAtReady := map[string][]int{}
	node.Disp.Call(func() {
		node.Mgr.OnReady(func(name string) {
			if p := holder[name]; p != "" {
				heldAtReady[name] = append(heldAtReady[name], node.hold.targets[p].held)
			}
		})
	})
	released0, shed0, dropped0 := M.Released.Value(), M.Shed.Value(), M.Dropped.Value()

	send := func(to, name string, params ...string) uint64 {
		g.seq++
		g.conn.Send(xmlcmd.NewCommand("gate", to, g.seq, name, params...))
		return g.seq
	}
	tune := func() uint64 { return send(station.RTU, "tune", "freqHz", "437100000") }
	waitOn := func(what string, cond func() bool) {
		t.Helper()
		for limit := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			var ok bool
			node.Disp.Call(func() { ok = cond() })
			if ok {
				return
			}
			if time.Now().After(limit) {
				for _, e := range rec.Events() {
					t.Log(e)
				}
				t.Fatalf("no %s within 10 s", what)
			}
		}
	}
	rtuIs := func(st proc.State, inc int) func() bool {
		return func() bool {
			s, _ := node.Mgr.State(station.RTU)
			n, _ := node.Mgr.Incarnation(station.RTU)
			return s == st && n == inc
		}
	}
	var acked []uint64
	awaitAcks := func(want ...uint64) {
		t.Helper()
		limit := time.After(10 * time.Second)
		for n := 0; n < len(want); {
			select {
			case a := <-g.acks:
				acked = append(acked, a.of)
				for _, w := range want {
					if a.of == w {
						n++
					}
				}
			case <-limit:
				t.Fatalf("acks %v, want %v among them", acked, want)
			}
		}
	}

	// Dead, then Starting: the first tune is dropped, the next five wait.
	if err := node.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatal(err)
	}
	lost := tune()
	waitOn("rtu incarnation 2 starting", rtuIs(proc.Starting, 2))
	var parked []uint64
	for i := 0; i < 5; i++ {
		parked = append(parked, tune())
	}
	g.seq++
	g.conn.Send(xmlcmd.NewPing("gate", station.RTU, g.seq, 1))
	awaitAcks(parked...)
	var inOrder []uint64
	for _, of := range acked {
		if of == lost {
			t.Fatalf("the tune sent while rtu was Dead was acked")
		}
		if of >= parked[0] {
			inOrder = append(inOrder, of)
		}
	}
	if fmt.Sprint(inOrder) != fmt.Sprint(parked) {
		t.Fatalf("held tunes acked as %v, want %v in send order", inOrder, parked)
	}

	// Each episode starts once REC no longer counts the last one open (a
	// fault inside its persist window escalates the restart).
	quiet := func() {
		t.Helper()
		if err := node.WaitRecovered(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(FDParamsForScale(scale).PersistWindow()/scale + 50*time.Millisecond)
		g.settles(t, 30, 8)
	}

	// An incarnation killed before it is ready takes its copies with it.
	quiet()
	if err := node.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatal(err)
	}
	waitOn("rtu incarnation 3 starting", rtuIs(proc.Starting, 3))
	doomed := []uint64{tune(), tune(), tune()}
	waitOn("three held tunes", func() bool { return node.hold.targets[station.RTU].held == 3 })
	// REC counts the interrupted restart as a failed attempt and escalates
	// to the root: the station restarts whole, str.track with it.
	node.Disp.Call(func() { _ = node.Mgr.Kill(station.RTU, "test: killed while starting") })
	quiet()
	node.Disp.Call(func() { heldAtReady[track] = nil })

	// A point for str while its tracking sub is down waits for the reattach.
	if err := node.Inject(fault.Fault{Manifest: track}); err != nil {
		t.Fatal(err)
	}
	point := send(station.STR, "point", "azRad", "1.25", "elRad", "0.5")
	awaitAcks(point)
	if err := node.WaitRecovered(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // a stray ack would have landed by now
	for len(g.acks) > 0 {
		acked = append(acked, (<-g.acks).of)
	}
	for _, of := range acked {
		for _, d := range doomed {
			if of == d {
				t.Fatalf("tune %d, held for an incarnation that died, was acked", of)
			}
		}
	}

	var rtuReady, trackReady []int
	node.Disp.Call(func() { rtuReady, trackReady = heldAtReady[station.RTU], heldAtReady[track] })
	if len(rtuReady) < 2 || rtuReady[0] != 5 || rtuReady[1] != 0 {
		t.Errorf("copies parked at rtu's ready moves %v, want [5 0 …]: the five tunes, not the ping, until after the listeners", rtuReady)
	}
	if len(trackReady) < 1 || trackReady[0] != 1 {
		t.Errorf("copies parked at str.track's reattach %v, want [1 …]", trackReady)
	}
	if d := M.Released.Value() - released0; d != 6 {
		t.Errorf("%d copies released, want 6", d)
	}
	if d := M.Dropped.Value() - dropped0; d != 3 {
		t.Errorf("%d copies dropped, want 3", d)
	}
	if d := M.Shed.Value() - shed0; d != 0 {
		t.Errorf("%d copies shed, want none", d)
	}

	// The lone restart took rtu's own startup: 4.9 station-s ±2 % jitter,
	// plus a little dispatcher lag.
	limit := station.RtuStartup.Seconds()*(1+station.StartupJitterFrac) + 1
	for _, e := range rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentReady && e.Component == station.RTU
	}) {
		if e.Count == 0 {
			t.Fatalf("ready line %v carries no incarnation", e)
		}
		if s := e.Dur.Seconds(); e.Count == 2 && s > limit {
			t.Errorf("rtu incarnation %d took %.2f station-s to start, limit %.2f", e.Count, s, limit)
		}
	}
}
