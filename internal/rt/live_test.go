package rt

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// testGate is an external bus client driving the station the way an
// operator console does: tune, point and radio-tune commands, each
// acknowledged by the component it is addressed to. It hands every inbound
// envelope back, like the runtime's own clients.
type testGate struct {
	conn bus.Conn
	mix  []*xmlcmd.Message // command seq goes out as mix[seq%len(mix)]
	acks chan gateAck      // every positive ack
	seq  uint64
}

// gateAck is what the gate copies out of an ack before handing it back.
type gateAck struct {
	of   uint64
	from string
}

func dialGate(t *testing.T, node *Node) *testGate {
	t.Helper()
	g := &testGate{acks: make(chan gateAck, 1024)} // above any window the tests use
	for i := 0; i < 8; i++ {
		f := strconv.FormatFloat(437.1e6+float64(i)*1e3, 'g', -1, 64)
		g.mix = append(g.mix,
			xmlcmd.NewCommand("gate", "rtu", 0, "tune", "freqHz", f),
			xmlcmd.NewCommand("gate", "str", 0, "point", "azRad", strconv.FormatFloat(0.75*float64(i), 'g', -1, 64), "elRad", "0.5"),
			xmlcmd.NewCommand("gate", "fedr", 0, "radio-tune", "freqHz", f))
	}
	conn, err := bus.DialAuto(node.BusAddr(), "gate", func(m *xmlcmd.Message) {
		if m.Ack != nil && m.Ack.OK {
			g.acks <- gateAck{m.Ack.OfSeq, m.From}
		}
		m.Owner.RecycleMessage(m)
	})
	if err != nil {
		t.Fatalf("dial gate: %v", err)
	}
	t.Cleanup(conn.Close)
	g.conn = conn
	return g
}

// roundTrips runs n commands through the station, window in flight at a
// time, and fails unless every one is acknowledged exactly once, by the
// component it was sent to.
func (g *testGate) roundTrips(t *testing.T, n, window int) {
	t.Helper()
	if err := g.run(n, window, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// settles retries batches of n commands until one is acknowledged in full:
// while the station is restarting cells — after a bus fault, or after a
// false suspicion on a busy host — commands and acks are lost (fail-silent
// fabric) and the gate does not resend.
func (g *testGate) settles(t *testing.T, n, window int) {
	t.Helper()
	var err error
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if err = g.run(n, window, time.Second); err == nil {
			return
		}
	}
	t.Fatalf("no clean batch of %d commands in 30 s, last: %v", n, err)
}

// run is one batch; idle is how long it waits for the next ack. Acks for
// commands of an earlier, abandoned batch are ignored.
func (g *testGate) run(n, window int, idle time.Duration) error {
	first := g.seq + 1
	send := func() {
		g.seq++
		m := g.mix[g.seq%uint64(len(g.mix))]
		m.Seq = g.seq
		g.conn.Send(m)
	}
	sent := 0
	for ; sent < window && sent < n; sent++ {
		send()
	}
	seen := make([]bool, n)
	timeout := time.NewTimer(idle)
	defer timeout.Stop()
	for acked := 0; acked < n; {
		select {
		case a := <-g.acks:
			of := a.of
			if of < first {
				continue
			}
			if of >= first+uint64(n) || seen[of-first] {
				return fmt.Errorf("ack for command %d: never sent, or acknowledged twice", of)
			}
			if to := g.mix[of%uint64(len(g.mix))].To; a.from != to {
				return fmt.Errorf("command %d went to %s, acknowledged by %q", of, to, a.from)
			}
			seen[of-first] = true
			acked++
			if !timeout.Stop() {
				<-timeout.C
			}
			timeout.Reset(idle)
		case <-timeout.C:
			return fmt.Errorf("%d of %d commands acknowledged, then nothing for %v", acked, n, idle)
		}
		if sent < n {
			send()
			sent++
		}
	}
	return nil
}

// TestLiveCommandAllocBudget pins what an acknowledged command costs the
// live path in allocations, end to end: gate → broker → component (→ fedr
// → pbcom for a tune) → broker → gate, about five frames. Every frame is
// encoded from a pooled or prebuilt message into a reused buffer, copied by
// the broker, and decoded once into a recycled envelope with cached tokens;
// the gate's numbers are in the encoder's own form and decode as numbers,
// and a radio tune's completion timer waits on the dispatcher's timer heap.
// Measured 0.01–0.09 on a 2-vCPU host: a few hundred allocations in all
// over 20 000 commands.
func TestLiveCommandAllocBudget(t *testing.T) {
	node, err := StartNode(NodeConfig{ListenAddr: "127.0.0.1:0", Scale: 50, TreeName: "IV", Seed: 1, BusShards: 2})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(node.Stop)
	g := dialGate(t, node)
	// Warm buffers, caches and free lists. A slow host (the race detector)
	// can make the failure detector miss a 25 ms pong and restart a
	// component, losing the commands in flight to it, so the warm-up
	// retries a lost batch like the measurement below does.
	g.settles(t, 2000, 64)
	// Only a batch acknowledged in full counts, and the batches are short,
	// so that a restart on a busy host costs one batch, not the measurement.
	const batch, batches = 2000, 10
	var mallocs uint64
	for done, attempt := 0, 0; done < batches; attempt++ {
		if attempt == 3*batches {
			t.Fatalf("%d of %d batches of %d commands acknowledged in full, last: %v", done, batches, batch, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = g.run(batch, 64, 2*time.Second)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Logf("attempt %d: %v", attempt, err)
			g.settles(t, 300, 8)
			continue
		}
		mallocs += after.Mallocs - before.Mallocs
		done++
	}
	perCommand := float64(mallocs) / (batch * batches)
	t.Logf("%.2f allocations per acknowledged command", perCommand)
	if perCommand > 0.5 {
		t.Errorf("an acknowledged command allocates %.2f, budget 0.5", perCommand)
	}
}
