package bus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file implements the real message bus used by the real-time runtime
// (cmd/mercuryd): a TCP broker carrying length-prefixed XML command frames
// between named clients, exactly the role mbus plays in the paper. The
// broker can be stopped and restarted — clients redial (reconnectDelay), so
// the fabric exhibits the same outage/recovery behaviour the simulated bus
// models. Multiple brokers compose into a sharded fabric (see shard.go);
// outbound sides batch frames through BatchWriter (see batch.go).

// Frame format: 4-byte big-endian length followed by the XML payload.
const frameHeader = 4

// readBufSize sizes the buffered readers on broker and client read loops:
// hundreds of typical frames, so a busy connection's batch lands in one read.
const readBufSize = 32 << 10

// TCP errors.
var (
	ErrClientClosed  = errors.New("bus: client closed")
	ErrNotRegistered = errors.New("bus: first frame must register a name")
)

// FrameWriter frames messages onto a stream, composing the length header
// and XML payload in one reusable scratch buffer so each frame costs a
// single Write call and, in steady state, zero allocations. A FrameWriter
// is owned by one connection and is not safe for concurrent use; callers
// serialise. Connection send paths batch through BatchWriter instead; the
// FrameWriter remains for one-shot frames (registration, tests, the
// unbatched benchmark baseline).
type FrameWriter struct {
	buf []byte
	sh  uint64 // metrics shard index; 0 = not yet assigned
}

// WriteFrame encodes m and writes it to w as one length-prefixed frame.
func (fw *FrameWriter) WriteFrame(w io.Writer, m *xmlcmd.Message) error {
	if cap(fw.buf) < frameHeader {
		fw.buf = make([]byte, frameHeader, 512)
	}
	buf, err := xmlcmd.AppendEncode(fw.buf[:frameHeader], m)
	if err != nil {
		return err
	}
	fw.buf = buf
	binary.BigEndian.PutUint32(buf[:frameHeader], uint32(len(buf)-frameHeader))
	_, err = w.Write(buf)
	if err == nil {
		if fw.sh == 0 {
			fw.sh = nextShard()
		}
		M.TCPFramesOut.Shard(fw.sh).Inc()
		M.TCPBytesOut.Shard(fw.sh).Add(uint64(len(buf)))
	}
	return err
}

// FrameReader reads length-prefixed frames from a stream, reusing one frame
// buffer across frames. Decoded messages never alias the buffer (the codec
// copies or interns every string), so it can be reused even when messages
// outlive the read call. The reader also owns the connection's
// xmlcmd.Decoder — the cache of tokens this peer repeats — which is why the
// cache lives here and not in the envelopes: one per connection, however
// many envelopes are in flight. A FrameReader is owned by one connection's
// read loop and is not safe for concurrent use.
type FrameReader struct {
	buf []byte // header + payload of the frame last read
	dec xmlcmd.Decoder
	sh  uint64 // metrics shard index; 0 = not yet assigned
}

// next reads one frame and returns it whole, length header included, valid
// until the next read. Its errors are framing errors — a short read, a
// length over MaxFrame — after which the stream is out of sync and the
// connection must go; what the payload holds is the caller's business.
func (fr *FrameReader) next(r io.Reader) ([]byte, error) {
	if cap(fr.buf) < frameHeader {
		fr.buf = make([]byte, frameHeader, 512)
	}
	if _, err := io.ReadFull(r, fr.buf[:frameHeader]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[:frameHeader]))
	if n > xmlcmd.MaxFrame {
		return nil, xmlcmd.ErrFrameTooLarge
	}
	if cap(fr.buf) < frameHeader+n {
		fr.buf = append(make([]byte, 0, frameHeader+n), fr.buf[:frameHeader]...)
	}
	frame := fr.buf[:frameHeader+n]
	if _, err := io.ReadFull(r, frame[frameHeader:]); err != nil {
		return nil, err
	}
	if fr.sh == 0 {
		fr.sh = nextShard()
	}
	M.TCPFramesIn.Shard(fr.sh).Inc()
	M.TCPBytesIn.Shard(fr.sh).Add(uint64(len(frame)))
	return frame, nil
}

// ReadFrameInto reads one frame and decodes it into m, reusing both the
// reader's buffer and m's decode scratch. Suited to synchronous consumers
// that are done with m before the next read.
func (fr *FrameReader) ReadFrameInto(r io.Reader, m *xmlcmd.Message) error {
	frame, err := fr.next(r)
	if err != nil {
		return err
	}
	return fr.dec.DecodeInto(frame[frameHeader:], m)
}

// ReadFrame reads one frame into a fresh message, reusing only the frame
// buffer. The returned message is safe to retain and hand to other
// goroutines. It serves the broker's registration frame and one-shot
// readers; connection read loops decode into recycled envelopes instead.
func (fr *FrameReader) ReadFrame(r io.Reader) (*xmlcmd.Message, error) {
	m := new(xmlcmd.Message)
	if err := fr.ReadFrameInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// registerCommand is the client's first frame.
const registerCommand = "register"

// BrokerConfig configures one broker (or broker shard). Every connection's
// send queue drops the newest frame when full (DropNewest).
type BrokerConfig struct {
	// Shard is this broker's shard index, used as the metrics label on
	// the mercury_bus_shard_* family. 0 for an unsharded broker.
	Shard int
}

// TCPBroker is the mbus broker: it accepts client connections, each
// opening with a register frame naming its bus address, and routes every
// subsequent frame to the connection registered under the To address of the
// frame's start tag, forwarding the bytes it received. Unroutable frames
// are dropped silently (fail-silent fabric); frames to a stalled
// destination are bounded by that connection's send queue, not by the
// sender.
//
// The broker never materialises a message. It enforces the framing
// (MaxFrame, whole frames) and the <message …> start-tag grammar, and a
// sender that breaks either loses its own connection; the body is the
// destination's to decode and validate, once, and a body that fails there
// is dropped and counted there without disturbing either connection.
//
// The registry is a sync.Map: routing is read-mostly (registrations are
// rare, routed frames are the hot path), so concurrent senders resolve
// destinations without serialising on a broker-wide lock, and each
// destination's writes serialise only on its own BatchWriter.
type TCPBroker struct {
	ln  net.Listener
	cfg BrokerConfig

	conns  sync.Map // name → *brokerConn
	nconns atomic.Int64

	// routed counts frames this broker forwarded, labelled by shard index.
	routed *obs.Counter

	mu     sync.Mutex // lifecycle only: closed flag vs. new registrations
	closed bool
	wg     sync.WaitGroup
}

// brokerConn pairs a registered client connection with its batching send
// queue. Routed frames enqueue here and a per-connection writer goroutine
// coalesces them into single Write calls.
type brokerConn struct {
	conn net.Conn
	bw   *BatchWriter
}

// ListenBrokerConfig starts a broker on addr (use "127.0.0.1:0" for an
// ephemeral port).
func ListenBrokerConfig(addr string, cfg BrokerConfig) (*TCPBroker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: listen: %w", err)
	}
	b := &TCPBroker{
		ln:     ln,
		cfg:    cfg,
		routed: M.TCPShardFrames.With(strconv.Itoa(cfg.Shard)),
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the broker's listen address.
func (b *TCPBroker) Addr() string { return b.ln.Addr().String() }

// Close shuts the broker down and disconnects every client.
func (b *TCPBroker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	err := b.ln.Close()
	b.mu.Unlock()
	// Closing the connections unblocks every serve loop; each cleans up
	// its own registry entry and batch writer.
	b.conns.Range(func(_, v any) bool {
		_ = v.(*brokerConn).conn.Close()
		return true
	})
	b.wg.Wait()
	return err
}

func (b *TCPBroker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serve(conn)
	}
}

// serve handles one client connection. The read side owns one FrameReader
// for the connection's lifetime: route() copies the frame into the
// destination's batch buffer before returning, so the reader's buffer is
// safe to reuse for the next frame.
func (b *TCPBroker) serve(conn net.Conn) {
	defer b.wg.Done()
	var fr FrameReader
	// Buffer the read side: peers write whole batches, so one kernel read
	// typically yields many frames instead of two reads per frame.
	br := bufio.NewReaderSize(conn, readBufSize)
	// Registration.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	first, err := fr.ReadFrame(br)
	if err != nil || first.Kind() != xmlcmd.KindCommand || first.Command.Name != registerCommand {
		_ = conn.Close()
		return
	}
	name := first.From
	_ = conn.SetReadDeadline(time.Time{})

	bc := &brokerConn{conn: conn, bw: NewBatchWriter(conn, DropNewest)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = bc.bw.Close()
		_ = conn.Close()
		return
	}
	if old, loaded := b.conns.Swap(name, bc); loaded {
		// A reconnecting client replaces its old session; the old serve
		// loop wakes on the closed connection and tears itself down.
		_ = old.(*brokerConn).conn.Close()
	} else {
		M.TCPConnections.Set(b.nconns.Add(1))
	}
	M.TCPRegistrations.Inc()
	b.mu.Unlock()

	routed := b.routed.Shard(nextShard())
	for {
		frame, err := fr.next(br)
		if err != nil {
			break
		}
		// A start tag that does not parse is this sender's fault and costs
		// this sender's connection, exactly as a corrupt frame always has.
		hdr, err := fr.dec.DecodeHeader(frame[frameHeader:])
		if err != nil {
			break
		}
		b.route(hdr.To, frame, routed)
	}

	if b.conns.CompareAndDelete(name, bc) {
		M.TCPConnections.Set(b.nconns.Add(-1))
	}
	_ = bc.bw.Close()
	_ = conn.Close()
}

// route copies a received frame onto its destination's send queue, dropping
// it if the destination has no live connection. No broker-wide lock is
// held: concurrent senders to different destinations proceed independently,
// and senders to one destination contend only on that queue's mutex.
func (b *TCPBroker) route(to string, frame []byte, routed *obs.CounterShard) {
	v, ok := b.conns.Load(to)
	if !ok {
		M.TCPRouteDrops.Inc()
		return
	}
	routed.Inc()
	// Back-pressure drops are counted by the queue; write errors are
	// surfaced by the destination's own read loop. Fail-silent either way.
	_ = v.(*brokerConn).bw.EnqueueFrame(frame)
}

// ClientNames lists currently registered clients (for tests/ops).
func (b *TCPBroker) ClientNames() []string {
	var out []string
	b.conns.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	return out
}

// Client defaults.
const (
	// reconnectQueue bounds the bytes of encoded frames a client parks
	// while its broker is away, flushed in order on reconnect. A station
	// command encodes to ~140–190 bytes, so 64 KiB is ~400 of them — ~200 ms
	// of a 2,000-command-a-second console — and small enough that a dead
	// shard cannot balloon every sender. Past the bound the oldest frames
	// are shed, counted in
	// mercury_bus_tcp_reconnect_queue_total{outcome="dropped"}: the newest
	// are the ones a waiting sender can still use.
	reconnectQueue = 64 << 10

	// The reconnect schedule (reconnectDelay): redial at once, then after 4,
	// 8 and from there every 16 ms, so that with ±20 % jitter a client is
	// back within 20 ms of the listeners' return — inside the 25 ms of wall
	// time (the failure detector's shortest pong timeout) a restarted mbus
	// cell waits for its clients before it calls itself ready. The fast
	// phase outlasts that cell's restart at Scale 1 (≤ 1.2 s detection +
	// 5.5 s startup); past it the poll doubles from 100 ms to 2 s.
	reconnectFastFirst = 4 * time.Millisecond
	reconnectFastCap   = 16 * time.Millisecond
	reconnectFastFor   = 10 * time.Second
	reconnectSlowFirst = 100 * time.Millisecond
	reconnectSlowCap   = 2 * time.Second

	// connectWriteTimeout bounds the registration and backlog writes of one
	// connect, which hold the mutex Send takes: a peer that accepts and never
	// reads must not hold a station's dispatcher. A reconnectQueue backlog
	// fits a socket buffer whole, so a healthy write is nowhere near it.
	connectWriteTimeout = 250 * time.Millisecond
)

// reconnectDelay is how long to wait before dial n (from 0) of an outage
// that has lasted outage so far. In the slow phase each wait is as long as
// the phase has lasted, which is a doubling backoff without a counter.
func reconnectDelay(n int, outage time.Duration) time.Duration {
	switch {
	case n == 0:
		return 0
	case outage < reconnectFastFor:
		return clock.Backoff(n, reconnectFastFirst, reconnectFastCap)
	}
	return min(max(outage-reconnectFastFor, reconnectSlowFirst), reconnectSlowCap)
}

// ClientConfig is DialSharded's per-client configuration. It has no
// fields: every client's send queue blocks when full (Block) and parks at
// most reconnectQueue bytes while its broker is away.
type ClientConfig struct{}

// TCPClient is one component's connection to the broker. It redials when
// the broker goes away (reconnectDelay); frames sent meanwhile are parked
// in a bounded queue and flushed, in order, ahead of new traffic once the
// broker returns — only the oldest frames past the bound are lost
// (counted, not silent).
type TCPClient struct {
	name  string
	addr  string
	onMsg func(*xmlcmd.Message)
	rng   *rand.Rand // backoff jitter; owned by readLoop

	mu          sync.Mutex
	conn        net.Conn
	bw          *BatchWriter // live connection's send queue; nil while disconnected
	queue       []byte       // encoded frames parked for the next reconnect, from queueHead on
	queueHead   int          // where the oldest frame not yet shed starts
	queueFrames int
	queueCap    int // bound on the parked bytes: reconnectQueue, raised only by tests
	closed      bool
	done        chan struct{} // closed by Close; unblocks the backoff wait
	wg          sync.WaitGroup

	// fw writes the registration frame during connect (under mu).
	fw FrameWriter

	// free recycles inbound envelopes for consumers that hand them back.
	free xmlcmd.FreeList
}

// DialBus connects and registers a client. onMsg is invoked from the read
// goroutine for every inbound frame that decodes and validates; the caller
// serialises. Each message is the handler's from then on: it may be
// retained or handed to another goroutine, and whoever finishes with it may
// hand the envelope back through m.Owner.RecycleMessage(m) — once, and
// keeping nothing of it afterwards — so the read loop decodes the next
// frame into it (rt.Dispatcher.PostMessage does). A handler that never
// hands back leaves its messages to the garbage collector.
func DialBus(addr, name string, onMsg func(*xmlcmd.Message)) (*TCPClient, error) {
	// Seed the backoff jitter from the client name so a station's clients
	// desynchronise deterministically rather than herding the broker.
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	c := &TCPClient{
		name:     name,
		addr:     addr,
		onMsg:    onMsg,
		rng:      rand.New(rand.NewSource(int64(h.Sum64()))),
		queueCap: reconnectQueue,
		done:     make(chan struct{}),
	}
	if err := c.connect(false); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// connect dials, registers, and flushes any frames parked while
// disconnected — in order, ahead of anything sent after the reconnect.
// atOnce marks the redial made the moment a connection was lost: finding
// the listener there means the broker hung up on this client on purpose (a
// newer session under its name), and the registration waits out
// reconnectSlowFirst rather than take the name straight back — which also
// keeps a peer that accepts and hangs up to ten connections a second.
func (c *TCPClient) connect(atOnce bool) error {
	conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	if atOnce {
		select {
		case <-c.done: // closed is set: the check below ends it
		case <-time.After(reconnectSlowFirst):
		}
	}
	reg := xmlcmd.NewCommand(c.name, "mbus", 0, registerCommand)
	_ = conn.SetWriteDeadline(time.Now().Add(connectWriteTimeout))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return ErrClientClosed
	}
	err = c.fw.WriteFrame(conn, reg)
	if backlog := c.queue[c.queueHead:]; err == nil && len(backlog) > 0 {
		// The parked queue is already a valid frame stream; one Write
		// delivers the whole backlog as a single batch.
		_, err = conn.Write(backlog)
		if err == nil {
			M.TCPFramesOut.Add(uint64(c.queueFrames))
			M.TCPBytesOut.Add(uint64(len(backlog)))
			M.TCPBatchFrames.ObserveValue(uint64(c.queueFrames))
			c.queue, c.queueHead, c.queueFrames = c.queue[:0], 0, 0
		}
	}
	if err != nil {
		c.mu.Unlock()
		_ = conn.Close()
		return err
	}
	_ = conn.SetWriteDeadline(time.Time{})
	c.conn = conn
	c.bw = NewBatchWriter(conn, Block)
	c.mu.Unlock()
	return nil
}

// Send queues a frame. Delivery stays fail-silent (the bus contract), but
// failure is no longer silent *loss* at the first hop: while disconnected
// the frame is parked in the bounded reconnect queue, which sheds its
// oldest frames to make room (counted in
// mercury_bus_tcp_reconnect_queue_total{outcome="dropped"}), and on a live
// connection it joins the batched send queue, whose Block policy throttles
// the caller instead of dropping.
func (c *TCPClient) Send(m *xmlcmd.Message) {
	c.mu.Lock()
	bw := c.bw
	if bw == nil {
		defer c.mu.Unlock()
		if c.closed {
			M.TCPSendDrops.Inc()
			return
		}
		n0 := len(c.queue)
		buf, err := xmlcmd.AppendEncode(append(c.queue, 0, 0, 0, 0), m)
		if err != nil {
			c.queue = buf[:n0]
			M.TCPSendDrops.Inc()
			return
		}
		binary.BigEndian.PutUint32(buf[n0:n0+frameHeader], uint32(len(buf)-n0-frameHeader))
		c.queue = buf
		c.queueFrames++
		M.TCPReconnectQueued.Inc()
		c.shedOldest()
		return
	}
	c.mu.Unlock()
	if err := bw.Enqueue(m); err != nil && !errors.Is(err, ErrBackpressure) {
		// The connection failed under us: count the loss and nudge the
		// read loop into its reconnect cycle.
		M.TCPSendDrops.Inc()
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
	}
}

// shedOldest drops the oldest parked frames until the rest fit the bound,
// always keeping the newest. The shed prefix is cut off once it is over
// half the buffer, so a cut never moves more bytes than were shed before
// it. The caller holds mu.
func (c *TCPClient) shedOldest() {
	for len(c.queue)-c.queueHead > c.queueCap && c.queueFrames > 1 {
		n := binary.BigEndian.Uint32(c.queue[c.queueHead:])
		c.queueHead += frameHeader + int(n)
		c.queueFrames--
		M.TCPReconnectDrops.Inc()
		M.TCPSendDrops.Inc()
	}
	if c.queueHead > len(c.queue)/2 {
		c.queue = c.queue[:copy(c.queue, c.queue[c.queueHead:])]
		c.queueHead = 0
	}
}

// Disconnected reports whether the client currently has no live
// connection — sends are parking in the reconnect queue. For tests and
// campaigns that must observe an outage before acting on it.
func (c *TCPClient) Disconnected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bw == nil
}

// readLoop receives frames and reconnects on failure until closed. It owns
// a FrameReader whose buffer and token cache persist across reconnects.
// Only a framing or I/O error ends a connection: frames are length-prefixed,
// so after a payload that fails to decode the stream is still in sync, and
// dropping this client off the bus for another sender's bad frame would put
// it out of the failure detector's reach for no fault of its own.
func (c *TCPClient) readLoop() {
	defer c.wg.Done()
	var fr FrameReader
	// One buffered reader reused across reconnects: the broker writes whole
	// batches, so one kernel read typically yields many frames.
	br := bufio.NewReaderSize(nil, readBufSize)
	// An outage runs from the loss of a connection to the next connect that
	// succeeds; dials counts the attempts made in it.
	outageAt, dials := time.Now(), 0
	wait := time.NewTimer(time.Hour) // stopped or drained before every Reset
	wait.Stop()
	for {
		c.mu.Lock()
		conn := c.conn
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if conn != nil {
			br.Reset(conn)
			for {
				frame, err := fr.next(br)
				if err != nil {
					break
				}
				if c.onMsg == nil {
					continue
				}
				m, err := c.free.Decode(&fr.dec, frame[frameHeader:])
				if err != nil {
					M.TCPDecodeDrops.Inc()
					continue
				}
				c.onMsg(m)
			}
			_ = conn.Close()
			c.mu.Lock()
			var bw *BatchWriter
			if c.conn == conn {
				c.conn = nil
				bw, c.bw = c.bw, nil
			}
			c.mu.Unlock()
			if bw != nil {
				_ = bw.Close() // queued-but-unwritten frames die with the conn
			}
			outageAt, dials = time.Now(), 0
		}
		// Waiting on a timer instead of sleeping keeps Close responsive
		// mid-wait, and the ±20% jitter spreads a station's clients out
		// instead of having them redial in lockstep.
		if d := clock.Jitter(c.rng, reconnectDelay(dials, time.Since(outageAt)), 0.2); d > 0 {
			wait.Reset(d)
			select {
			case <-c.done:
				wait.Stop()
				return
			case <-wait.C:
			}
		}
		dials++
		c.mu.Lock()
		closed = c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if c.connect(dials == 1) == nil { // failure leaves conn nil; loop retries
			M.TCPReconnects.Inc()
			M.TCPReconnectTime.Observe(time.Since(outageAt))
		}
	}
}

// Close tears the client down, flushing the live send queue first so
// frames already queued (a one-shot tool's final command) reach the wire.
func (c *TCPClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.done)
	conn := c.conn
	bw := c.bw
	c.bw = nil
	c.mu.Unlock()
	if bw != nil {
		_ = bw.Close()
	}
	if conn != nil {
		_ = conn.Close()
	}
	c.wg.Wait()
}
