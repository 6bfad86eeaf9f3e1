package bus

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Tests for the client reconnect queue and the broker's per-connection
// back-pressure: the two places where the bus bounds memory instead of
// either losing frames silently or growing without limit.

// TestTCPReconnectQueueFlush pins the reconnect-queue contract: frames
// sent while the broker is away are parked, counted, and delivered — in
// send order, ahead of post-reconnect traffic — once the broker returns.
// This is the regression test for the old behaviour, where Send while
// disconnected discarded the frame with nothing but a counter tick. The
// client sends to itself so delivery is deterministic: its register frame
// precedes the flushed queue on the same connection, so the destination
// is guaranteed to be routable by the time the parked frames arrive.
func TestTCPReconnectQueueFlush(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	var got collector
	send, err := DialBus(addr, "fd", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registration", func() bool { return len(b.ClientNames()) == 1 })

	queued0 := M.TCPReconnectQueued.Value()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait until the client has noticed the outage (bw torn down) so the
	// sends below exercise the parked-queue path, not the live path.
	waitFor(t, "client to notice outage", func() bool {
		send.mu.Lock()
		defer send.mu.Unlock()
		return send.bw == nil
	})
	const parked = 5
	for i := uint64(0); i < parked; i++ {
		send.Send(xmlcmd.NewPing("fd", "fd", i, 100+i))
	}
	if d := M.TCPReconnectQueued.Value() - queued0; d != parked {
		t.Fatalf("reconnect-queued counter moved by %d, want %d", d, parked)
	}

	b2, err := listenBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitFor(t, "reconnection", func() bool { return len(b2.ClientNames()) == 1 })
	send.Send(xmlcmd.NewPing("fd", "fd", parked, 100+parked))

	waitFor(t, "parked frames + follow-up", func() bool { return got.count() == parked+1 })
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, m := range got.msgs {
		if m.Ping.Nonce != uint64(100+i) {
			t.Fatalf("frame %d: nonce %d, want %d (queue must flush in order, ahead of new sends)",
				i, m.Ping.Nonce, 100+i)
		}
	}
}

// TestTCPReconnectQueueBound: the parked queue is bounded, and past the
// bound it keeps the newest frames. Overflow sheds the oldest against the
// dropped-outcome counter, and once the broker is back the survivors — the
// last frame sent among them — are flushed in send order. (The client
// sends to itself, as in TestTCPReconnectQueueFlush, so every flushed frame
// is routable.)
func TestTCPReconnectQueueBound(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	var got collector
	send, err := DialBus(addr, "fd", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registration", func() bool { return len(b.ClientNames()) == 1 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "client to notice outage", send.Disconnected)

	// Every frame is at least its length header, so this many pings
	// overflow the bound whatever a ping encodes to.
	const pings = reconnectQueue/frameHeader + 1
	drops0 := M.TCPReconnectDrops.Value()
	for i := uint64(0); i < pings; i++ {
		send.Send(xmlcmd.NewPing("fd", "fd", i, i))
	}
	shed := M.TCPReconnectDrops.Value() - drops0
	if shed == 0 {
		t.Fatalf("%d parked pings never overflowed a %d-byte reconnect queue", pings, reconnectQueue)
	}
	send.mu.Lock()
	parked, frames := len(send.queue)-send.queueHead, send.queueFrames
	send.mu.Unlock()
	if parked > reconnectQueue {
		t.Fatalf("%d bytes parked past the %d-byte bound", parked, reconnectQueue)
	}
	if uint64(frames)+shed != pings {
		t.Fatalf("%d frames parked and %d shed, want %d in all", frames, shed, pings)
	}

	b2, err := listenBroker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitFor(t, "the parked frames", func() bool { return got.count() == frames })
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, m := range got.msgs {
		if want := shed + uint64(i); m.Ping.Nonce != want {
			t.Fatalf("flushed frame %d carries nonce %d, want %d: the queue must keep the newest, in order", i, m.Ping.Nonce, want)
		}
	}
}

// stalledClient registers a name at the broker over a raw connection and
// then never reads: its kernel buffers fill, the broker's bounded send
// queue for it fills, and further frames must be dropped — without the
// stall propagating to other destinations.
func stalledClient(t *testing.T, addr, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&FrameWriter{}).WriteFrame(conn, xmlcmd.NewCommand(name, "mbus", 0, registerCommand)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTCPBrokerStalledReaderIsolation: a destination that stops reading
// must cost the broker at most one bounded queue, not wedge routing. The
// fabric's DropNewest policy sheds that destination's frames against the
// back-pressure counter while a healthy destination keeps receiving.
func TestTCPBrokerStalledReaderIsolation(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stalled := stalledClient(t, b.Addr(), "stuck")
	defer stalled.Close()
	var got collector
	live, err := DialBus(b.Addr(), "ses", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	send, err := DialBus(b.Addr(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registration", func() bool { return len(b.ClientNames()) == 3 })

	// Flood the stalled destination with fat frames until its socket
	// buffers and bounded queue overflow and the drop counter moves.
	drops0 := M.TCPBackpressureDrops.Value()
	payload := strings.Repeat("x", 4<<10)
	for i := uint64(0); i < 4096 && M.TCPBackpressureDrops.Value() == drops0; i++ {
		send.Send(new(xmlcmd.Pool).Event("fd", "stuck", i, "flood", payload))
	}
	if M.TCPBackpressureDrops.Value() == drops0 {
		t.Fatal("16 MiB at a stalled reader never tripped its bounded queue")
	}

	// The healthy destination must still receive traffic promptly.
	send.Send(xmlcmd.NewPing("fd", "ses", 1, 7))
	waitFor(t, "delivery past the stalled peer", func() bool { return got.count() == 1 })
	if m := got.last(); m.Ping == nil || m.Ping.Nonce != 7 {
		t.Fatalf("got %+v", m)
	}
}

// BenchmarkBrokerRouteParallel measures the broker's routing hot path —
// registry lookup plus batch enqueue — under concurrent senders. Before
// the sharded registry this serialised every sender on one broker mutex;
// now senders to one destination contend only on its queue.
func BenchmarkBrokerRouteParallel(b *testing.B) {
	br, err := listenBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()

	// A draining sink: register raw, then discard everything inbound so
	// the batch writer never blocks on the socket.
	conn, err := net.Dial("tcp", br.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if err := (&FrameWriter{}).WriteFrame(conn, xmlcmd.NewCommand("sink", "mbus", 0, registerCommand)); err != nil {
		b.Fatal(err)
	}
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		_, _ = io.Copy(io.Discard, conn)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(br.ClientNames()) == 0 {
		if time.Now().After(deadline) {
			b.Fatal("sink never registered")
		}
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		routed := br.routed.Shard(nextShard())
		var frame bytes.Buffer
		if err := (&FrameWriter{}).WriteFrame(&frame, xmlcmd.NewPing("fd", "sink", 0, 42)); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			br.route("sink", frame.Bytes(), routed)
		}
	})
	b.StopTimer()
	_ = conn.Close()
	drain.Wait()
}
