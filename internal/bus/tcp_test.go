package bus

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// collector gathers inbound frames thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []*xmlcmd.Message
}

func (c *collector) on(m *xmlcmd.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) last() *xmlcmd.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) == 0 {
		return nil
	}
	return c.msgs[len(c.msgs)-1]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// listenBroker starts a broker the way the runtimes do (rt's broker
// config): drop-on-backpressure batching.
func listenBroker(addr string) (*TCPBroker, error) {
	return ListenBrokerConfig(addr, BrokerConfig{})
}

func TestTCPRouting(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var got collector
	recv, err := DialBus(b.Addr(), "ses", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialBus(b.Addr(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registration", func() bool { return len(b.ClientNames()) == 2 })

	send.Send(xmlcmd.NewPing("fd", "ses", 1, 42))
	waitFor(t, "delivery", func() bool { return got.count() == 1 })
	if m := got.last(); m.Kind() != xmlcmd.KindPing || m.Ping.Nonce != 42 {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPUnknownDestinationDropped(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	send, err := DialBus(b.Addr(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	send.Send(xmlcmd.NewPing("fd", "ghost", 1, 1)) // must not panic or error
	time.Sleep(50 * time.Millisecond)
}

func TestTCPPingPong(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var echo *TCPClient
	echo, err = DialBus(b.Addr(), "rtu", func(m *xmlcmd.Message) {
		if m.Kind() == xmlcmd.KindPing {
			echo.Send(new(xmlcmd.Pool).Pong("rtu", m, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()

	var got collector
	fd, err := DialBus(b.Addr(), "fd", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	waitFor(t, "registration", func() bool { return len(b.ClientNames()) == 2 })

	fd.Send(xmlcmd.NewPing("fd", "rtu", 9, 77))
	waitFor(t, "pong", func() bool { return got.count() == 1 })
	if m := got.last(); m.Pong == nil || m.Pong.Nonce != 77 {
		t.Fatalf("got %+v", m)
	}
}

func TestTCPClientReconnectsAfterBrokerRestart(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	var got collector
	recv, err := DialBus(addr, "ses", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialBus(addr, "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "initial registration", func() bool { return len(b.ClientNames()) == 2 })

	// Broker outage: the clients survive, and a frame sent once the
	// sender knows it is disconnected is parked.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnection", send.Disconnected)
	send.Send(xmlcmd.NewPing("fd", "ses", 1, 1))

	// Broker returns on the same address.
	b2, err := listenBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitFor(t, "reconnection", func() bool { return len(b2.ClientNames()) == 2 })

	// The parked frame is flushed ahead of new traffic; it may still be
	// lost if the receiver had not re-registered when it arrived.
	send.Send(xmlcmd.NewPing("fd", "ses", 2, 2))
	nonces := func() []uint64 {
		got.mu.Lock()
		defer got.mu.Unlock()
		var out []uint64
		for _, m := range got.msgs {
			out = append(out, m.Ping.Nonce)
		}
		return out
	}
	waitFor(t, "post-restart delivery", func() bool { return slices.Contains(nonces(), 2) })
	if n := nonces(); !slices.Equal(n, []uint64{2}) && !slices.Equal(n, []uint64{1, 2}) {
		t.Fatalf("delivered nonces %v, want [1 2] or [2]", n)
	}
}

func TestTCPRequiresRegistration(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a non-register frame first: the broker must drop the session.
	if err := (&FrameWriter{}).WriteFrame(conn, xmlcmd.NewPing("x", "y", 1, 1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("broker kept an unregistered session alive")
	}
}

func TestTCPReplacedSession(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got1, got2 collector
	c1, err := DialBus(b.Addr(), "ses", got1.on)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	waitFor(t, "first session", func() bool { return len(b.ClientNames()) == 1 })
	// A second client with the same name replaces the first (restarted
	// component reconnecting).
	c2, err := DialBus(b.Addr(), "ses", got2.on)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	send, err := DialBus(b.Addr(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "replacement", func() bool { return len(b.ClientNames()) == 2 })
	send.Send(xmlcmd.NewPing("fd", "ses", 1, 5))
	waitFor(t, "delivery to new session", func() bool { return got2.count() == 1 })
}

func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		_ = (&FrameWriter{}).WriteFrame(client, new(xmlcmd.Pool).Event("a", "b", 3, "boom", "detail"))
	}()
	m, err := (&FrameReader{}).ReadFrame(server)
	if err != nil {
		t.Fatal(err)
	}
	if m.Event.Name != "boom" || m.Seq != 3 {
		t.Fatalf("got %+v", m)
	}
}

// TestTCPCloseDuringReconnectBackoff: Close must interrupt the reconnect
// wait, not ride out a multi-second backoff sleep.
func TestTCPCloseDuringReconnectBackoff(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBus(b.Addr(), "ses", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the broker and give the client time to fail a few dials so its
	// backoff has grown well past the tolerance below.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond)

	start := time.Now()
	c.Close()
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("Close took %v during reconnect backoff, want prompt return", d)
	}
}
