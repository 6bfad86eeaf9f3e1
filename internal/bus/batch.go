package bus

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file implements adaptive frame batching for the TCP wire path. A
// BatchWriter owns one connection's outbound side: senders encode frames
// (the broker copies the frames it forwards) into a shared pending buffer
// (concatenated length-prefixed frames — the wire format of a batch is
// byte-identical to the same frames written one
// at a time), and a single writer goroutine drains the buffer with one
// Write call per batch. Batching is adaptive: while the writer is inside a
// Write syscall, senders keep appending, so the next flush carries
// everything that accumulated — under load batches grow and the syscall
// rate collapses, while an idle connection still flushes every frame
// immediately. The pending buffer is bounded: a full queue
// either blocks the sender (back-pressure propagates) or drops the frame
// against a counter, never grows silently.

// Batching errors.
var (
	// ErrBackpressure reports a frame rejected by a full bounded send
	// queue under the DropNewest policy.
	ErrBackpressure = errors.New("bus: bounded send queue full")
	// ErrWriterClosed reports an enqueue after Close.
	ErrWriterClosed = errors.New("bus: batch writer closed")
)

// QueuePolicy selects what a full send queue does with the next frame. It
// follows the connection's role: brokers drop, clients block.
type QueuePolicy int

const (
	// Block makes Enqueue wait for queue space: back-pressure propagates
	// to the sender, so a slow connection throttles its producers instead
	// of losing traffic. Every client connection.
	Block QueuePolicy = iota
	// DropNewest makes Enqueue discard the offered frame (counted in
	// mercury_bus_shard_backpressure_drops_total). Every broker
	// connection: one stalled reader must not wedge routing for every
	// other destination, and the fabric is fail-silent by contract.
	DropNewest
)

// maxQueue bounds a connection's pending buffer in bytes, the back-pressure
// trip point. 256 KiB per connection caps broker memory at a few MiB even
// with every client stalled.
const maxQueue = 256 << 10

// BatchWriter coalesces frames queued by any number of goroutines into
// single Write calls on one connection, in enqueue order. Created with
// NewBatchWriter; must be Closed to stop its writer goroutine.
type BatchWriter struct {
	w      io.Writer
	policy QueuePolicy

	mu            sync.Mutex
	cond          *sync.Cond
	pending       []byte // encoded frames waiting for the next flush
	spare         []byte // previous flush's buffer, reused
	pendingFrames int
	closed        bool
	err           error

	done chan struct{} // writer goroutine exited

	// metrics shards (see metrics.go).
	framesOut, bytesOut, bpDrops *obs.CounterShard
}

// NewBatchWriter starts a batch writer over w whose full queue applies
// policy.
func NewBatchWriter(w io.Writer, policy QueuePolicy) *BatchWriter {
	bw := &BatchWriter{
		w:      w,
		policy: policy,
		done:   make(chan struct{}),
	}
	bw.cond = sync.NewCond(&bw.mu)
	sh := nextShard()
	bw.framesOut = M.TCPFramesOut.Shard(sh)
	bw.bytesOut = M.TCPBytesOut.Shard(sh)
	bw.bpDrops = M.TCPBackpressureDrops.Shard(sh)
	go bw.loop()
	return bw
}

// Enqueue encodes m into the pending batch. It returns nil once the frame
// is queued (delivery remains fail-silent, like the rest of the bus),
// ErrBackpressure if the DropNewest policy rejected it, ErrWriterClosed
// after Close, or the connection's write error once the writer has failed.
// Under the Block policy a full queue makes Enqueue wait for the writer to
// drain. Safe for concurrent use; frames from one goroutine are written in
// the order it enqueued them.
func (bw *BatchWriter) Enqueue(m *xmlcmd.Message) error {
	if err := bw.admit(); err != nil {
		return err
	}
	n0 := len(bw.pending)
	buf, err := xmlcmd.AppendEncode(append(bw.pending, 0, 0, 0, 0), m)
	if err != nil {
		// The pending array may have been regrown by the failed append;
		// keep the larger capacity but drop the partial frame.
		bw.pending = buf[:n0]
		bw.mu.Unlock()
		return err
	}
	binary.BigEndian.PutUint32(buf[n0:n0+frameHeader], uint32(len(buf)-n0-frameHeader))
	bw.queued(buf, n0)
	return nil
}

// EnqueueFrame queues one already-framed message — length header and
// payload, as read off another connection — under Enqueue's contract. The
// bytes are copied, so the caller may reuse frame at once; this is the
// broker's forwarding path, a memcpy under the queue lock where Enqueue
// runs the encoder.
func (bw *BatchWriter) EnqueueFrame(frame []byte) error {
	if err := bw.admit(); err != nil {
		return err
	}
	n0 := len(bw.pending)
	bw.queued(append(bw.pending, frame...), n0)
	return nil
}

// admit applies the queue policy: it returns nil holding mu, with room for
// one more frame, or the reason the frame is refused with mu released.
func (bw *BatchWriter) admit() error {
	bw.mu.Lock()
	if bw.policy == Block {
		for len(bw.pending) >= maxQueue && bw.err == nil && !bw.closed {
			bw.cond.Wait()
		}
	}
	if bw.closed {
		bw.mu.Unlock()
		return ErrWriterClosed
	}
	if bw.err != nil {
		err := bw.err
		bw.mu.Unlock()
		return err
	}
	if len(bw.pending) >= maxQueue { // DropNewest
		bw.mu.Unlock()
		bw.bpDrops.Inc()
		return ErrBackpressure
	}
	return nil
}

// queued installs buf, pending plus one frame appended at n0, wakes the
// writer and releases mu.
func (bw *BatchWriter) queued(buf []byte, n0 int) {
	bw.pending = buf
	bw.pendingFrames++
	M.TCPQueueBytes.Add(int64(len(buf) - n0))
	bw.cond.Broadcast()
	bw.mu.Unlock()
}

// Err returns the writer's terminal error, if any.
func (bw *BatchWriter) Err() error {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	return bw.err
}

// Close flushes every queued frame in order, stops the writer goroutine
// and returns the terminal write error, if any. It does not close the
// underlying connection.
func (bw *BatchWriter) Close() error {
	bw.mu.Lock()
	if !bw.closed {
		bw.closed = true
		bw.cond.Broadcast()
	}
	bw.mu.Unlock()
	<-bw.done
	return bw.Err()
}

// loop is the writer goroutine: swap out the pending buffer, write it in
// one call, repeat. Entered and exited holding no lock.
func (bw *BatchWriter) loop() {
	defer close(bw.done)
	bw.mu.Lock()
	for {
		for bw.pendingFrames == 0 && !bw.closed && bw.err == nil {
			bw.cond.Wait()
		}
		if bw.err != nil || (bw.closed && bw.pendingFrames == 0) {
			break
		}
		buf, frames := bw.pending, bw.pendingFrames
		bw.pending, bw.spare = bw.spare[:0], buf
		bw.pendingFrames = 0
		M.TCPQueueBytes.Add(-int64(len(buf)))
		bw.cond.Broadcast() // admit senders blocked on a full queue
		bw.mu.Unlock()

		_, werr := bw.w.Write(buf)
		M.TCPBatchFrames.ObserveValue(uint64(frames))
		bw.framesOut.Add(uint64(frames))
		bw.bytesOut.Add(uint64(len(buf)))

		bw.mu.Lock()
		if werr != nil && bw.err == nil {
			bw.err = werr
			bw.cond.Broadcast()
		}
	}
	// Terminal: anything still pending is lost with the connection.
	M.TCPQueueBytes.Add(-int64(len(bw.pending)))
	bw.pending = nil
	bw.pendingFrames = 0
	bw.cond.Broadcast()
	bw.mu.Unlock()
}
