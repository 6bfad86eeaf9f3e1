package bus

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"time"

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
// immediately (FlushDelay 0). The pending buffer is bounded: a full queue
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

// QueuePolicy selects what a full send queue does with the next frame.
type QueuePolicy int

const (
	// Block makes Enqueue wait for queue space: back-pressure propagates
	// to the sender, so a slow connection throttles its producers instead
	// of losing traffic. The client default.
	Block QueuePolicy = iota
	// DropNewest makes Enqueue discard the offered frame (counted in
	// mercury_bus_shard_backpressure_drops_total). The broker default: one
	// stalled reader must not wedge routing for every other destination,
	// and the fabric is fail-silent by contract.
	DropNewest
)

// Batching defaults.
const (
	// DefaultFlushBytes is the batch size threshold: once the pending
	// buffer reaches it, the writer flushes even if FlushDelay has not
	// elapsed. 16 KiB ≈ 200 typical frames, far past the point where the
	// per-syscall cost is amortised.
	DefaultFlushBytes = 16 << 10
	// DefaultMaxQueue bounds the pending buffer. 256 KiB per connection
	// caps broker memory at a few MiB even with every client stalled.
	DefaultMaxQueue = 256 << 10
)

// BatchConfig tunes one connection's batching and back-pressure.
type BatchConfig struct {
	// FlushBytes flushes a batch early once the pending buffer reaches
	// this size. <= 0 selects DefaultFlushBytes.
	FlushBytes int
	// FlushDelay is the longest a queued frame may wait for its batch to
	// fill. 0 (the default) flushes as soon as the writer is free: no
	// added latency, batching arises only from writer occupancy. > 0
	// trades latency for larger batches.
	FlushDelay time.Duration
	// MaxQueue bounds the pending buffer in bytes. <= 0 selects
	// DefaultMaxQueue.
	MaxQueue int
	// Policy selects Block or DropNewest when the queue is full.
	Policy QueuePolicy
}

// withDefaults fills zero fields.
func (c BatchConfig) withDefaults() BatchConfig {
	if c.FlushBytes <= 0 {
		c.FlushBytes = DefaultFlushBytes
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxQueue < c.FlushBytes {
		c.MaxQueue = c.FlushBytes
	}
	return c
}

// BatchWriter coalesces frames queued by any number of goroutines into
// single Write calls on one connection, in enqueue order. Created with
// NewBatchWriter; must be Closed to stop its writer goroutine.
type BatchWriter struct {
	w   io.Writer
	cfg BatchConfig

	mu            sync.Mutex
	cond          *sync.Cond
	pending       []byte // encoded frames waiting for the next flush
	spare         []byte // previous flush's buffer, reused
	pendingFrames int
	firstAt       time.Time // when pending went non-empty (deadline base)
	kicked        bool      // explicit Flush requested
	closed        bool
	err           error

	done chan struct{} // writer goroutine exited

	// metrics shards (see metrics.go).
	framesOut, bytesOut, bpDrops *obs.CounterShard
}

// NewBatchWriter starts a batch writer over w.
func NewBatchWriter(w io.Writer, cfg BatchConfig) *BatchWriter {
	bw := &BatchWriter{
		w:    w,
		cfg:  cfg.withDefaults(),
		done: make(chan struct{}),
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
	if bw.cfg.Policy == Block {
		for len(bw.pending) >= bw.cfg.MaxQueue && bw.err == nil && !bw.closed {
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
	if len(bw.pending) >= bw.cfg.MaxQueue { // DropNewest
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
	if bw.pendingFrames == 1 {
		bw.firstAt = time.Now()
	}
	M.TCPQueueBytes.Add(int64(len(buf) - n0))
	bw.cond.Broadcast()
	bw.mu.Unlock()
}

// Flush asks the writer to flush the current batch without waiting for
// FlushDelay or FlushBytes. It does not wait for the write to complete.
func (bw *BatchWriter) Flush() {
	bw.mu.Lock()
	bw.kicked = true
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
		// Deadline batching: hold the batch open until FlushDelay elapses
		// from the first queued frame, the size threshold is reached, an
		// explicit Flush arrives, or the writer is closing.
		for bw.cfg.FlushDelay > 0 && !bw.kicked && !bw.closed && bw.err == nil &&
			len(bw.pending) < bw.cfg.FlushBytes {
			wait := bw.cfg.FlushDelay - time.Since(bw.firstAt)
			if wait <= 0 {
				break
			}
			bw.timedWait(wait)
		}
		if bw.err != nil {
			break
		}
		buf, frames := bw.pending, bw.pendingFrames
		bw.pending, bw.spare = bw.spare[:0], buf
		bw.pendingFrames = 0
		bw.kicked = false
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

// timedWait waits on the condition for at most d, returning early when any
// flush condition changes. Called with mu held; returns with mu held.
func (bw *BatchWriter) timedWait(d time.Duration) {
	fired := false
	t := time.AfterFunc(d, func() {
		bw.mu.Lock()
		fired = true
		bw.cond.Broadcast()
		bw.mu.Unlock()
	})
	for !fired && !bw.kicked && !bw.closed && bw.err == nil &&
		len(bw.pending) < bw.cfg.FlushBytes {
		bw.cond.Wait()
	}
	t.Stop()
}
