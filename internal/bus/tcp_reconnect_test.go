package bus

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Tests for the client's reconnect path: the one schedule every redial
// follows, and the two ways a peer can abuse a reconnecting client — by
// hanging up on every connection, and by accepting one and never reading.

func TestReconnectSchedule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		outage time.Duration
		want   time.Duration
	}{
		{"first retry at once", 0, 0, 0},
		{"first retry at once, whatever came before", 0, time.Hour, 0},
		{"second", 1, time.Millisecond, 4 * time.Millisecond},
		{"third", 2, 5 * time.Millisecond, 8 * time.Millisecond},
		{"fast cap", 3, 13 * time.Millisecond, 16 * time.Millisecond},
		{"fast cap holds", 4, 30 * time.Millisecond, 16 * time.Millisecond},
		{"fast cap holds to the end of the phase", 600, reconnectFastFor - time.Millisecond, 16 * time.Millisecond},
		{"a huge dial count does not overflow the shift", 1 << 20, time.Second, 16 * time.Millisecond},
		{"slow phase starts at 100 ms", 600, reconnectFastFor, 100 * time.Millisecond},
		{"and waits as long as it has lasted", 601, reconnectFastFor + 250*time.Millisecond, 250 * time.Millisecond},
		{"doubling", 603, reconnectFastFor + time.Second, time.Second},
		{"to the 2 s cap", 605, reconnectFastFor + 3*time.Second, 2 * time.Second},
		{"for a broker that stays away", 9999, 24 * time.Hour, 2 * time.Second},
	} {
		if got := reconnectDelay(tc.n, tc.outage); got != tc.want {
			t.Errorf("%s: reconnectDelay(%d, %v) = %v, want %v", tc.name, tc.n, tc.outage, got, tc.want)
		}
	}

	// Walked end to end at the short end of the jitter: a 3 s outage costs a
	// bounded number of dials, and a minute-long one ends on the 2 s cap.
	walk := func(outage time.Duration) (dials int, last time.Duration) {
		for at := time.Duration(0); at < outage; dials++ {
			last = reconnectDelay(dials, at)
			at += last * 8 / 10
		}
		return dials, last
	}
	if dials, _ := walk(3 * time.Second); dials < 100 || dials > 250 {
		t.Errorf("a 3 s outage costs %d dials, want a 16 ms poll (100 to 250)", dials)
	}
	if dials, last := walk(time.Minute); last != reconnectSlowCap || dials > 850 {
		t.Errorf("a 60 s outage: %d dials, the last after %v; want the 2 s cap", dials, last)
	}
}

// TestTCPReconnectTracksBroker: a client that lost its broker is registered
// again within tens of milliseconds of the listener's return, not a backoff
// sleep later; a connection that was re-established and lost again starts
// the schedule over (at the parent a reconnect that carried no frame kept
// the grown delay); and the reconnect is timed into
// mercury_bus_tcp_reconnect_seconds.
func TestTCPReconnectTracksBroker(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	c, err := DialBus(addr, "ses", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	observed, slow := M.TCPReconnectTime.Count(), 0
	for round, down := range []time.Duration{300 * time.Millisecond, 50 * time.Millisecond, 700 * time.Millisecond} {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(down)
		if b, err = listenBroker(addr); err != nil {
			t.Fatal(err)
		}
		back := time.Now()
		waitFor(t, "re-registration", func() bool { return len(b.ClientNames()) == 1 && !c.Disconnected() })
		// 16 ms × 1.2 of schedule; the rest is this host's scheduling, which
		// now and then stalls a process for 50 ms: one slow round is let go.
		// The old schedule's shortest wait was 80 ms, in every round.
		if lag := time.Since(back); lag > 70*time.Millisecond {
			t.Logf("round %d: registered %v after the listener returned", round, lag)
			slow++
		}
	}
	if slow > 1 {
		t.Errorf("%d of 3 reconnects took over 70 ms from the listener's return", slow)
	}
	_ = b.Close()
	if n := M.TCPReconnectTime.Count() - observed; n != 3 {
		t.Errorf("reconnect histogram took %d observations over 3 reconnects", n)
	}
}

// TestTCPReconnectHangupPeer: a peer that accepts and hangs up completes a
// connect every time, and "retry at once after a connection is lost" must
// not turn that into a busy loop: a redial that finds the listener there
// holds off 100 ms before it registers.
func TestTCPReconnectHangupPeer(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	c, err := DialBus(addr, "ses", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			_ = conn.Close()
		}
	}()
	time.Sleep(time.Second)
	_ = ln.Close()
	if n := accepted.Load(); n < 5 || n > 12 {
		t.Fatalf("%d connections in 1 s to a peer that hangs up, want one per 100 ms", n)
	}
}

// TestTCPConnectDeafPeer: a peer that accepts and never reads, and a
// backlog larger than the socket buffers between them. At the parent the
// backlog write blocked for ever holding the client's mutex, and with it
// every Send — on a live node, the dispatcher goroutine. Now the write is
// bounded, Send returns, and Close does.
func TestTCPConnectDeafPeer(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	// A backlog past loopback's send and receive buffers: far larger than
	// reconnectQueue, so the test raises this client's bound.
	const backlog = 24 << 20
	c, err := DialBus(addr, "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.queueCap = backlog
	c.mu.Unlock()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "client to notice outage", c.Disconnected)
	big := xmlcmd.NewCommand("fd", "ses", 1, "blob", "v", strings.Repeat("x", 32<<10))
	for i := 0; i < backlog/(32<<10); i++ {
		c.Send(big)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var held []net.Conn // accepted, never read, closed with the test
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			_ = conn.Close()
		}
	}()
	waitFor(t, "the deaf peer to accept", func() bool { mu.Lock(); defer mu.Unlock(); return len(held) > 0 })

	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for i := 0; i < 5; i++ {
			c.Send(xmlcmd.NewPing("fd", "ses", uint64(i), uint64(i)))
		}
		c.Close()
		done <- time.Since(start)
	}()
	select {
	case d := <-done:
		// Each Send waits out at most one connect's write deadline.
		if limit := 6*connectWriteTimeout + time.Second; d > limit {
			t.Fatalf("5 sends and Close took %v against a peer that never reads, limit %v", d, limit)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send or Close still blocked after 10 s behind a connect to a peer that never reads")
	}
}
