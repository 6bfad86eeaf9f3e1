package bus

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// lockedBuffer is an io.Writer the batch writer's goroutine can share with
// the test goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// chunkRecorder records each Write as one chunk, optionally gating every
// write on a token so tests can stall the writer deliberately.
type chunkRecorder struct {
	mu     sync.Mutex
	chunks [][]byte
	gate   chan struct{} // nil = never stall
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chunks = append(r.chunks, append([]byte(nil), p...))
	return len(p), nil
}

func (r *chunkRecorder) chunkCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.chunks)
}

func (r *chunkRecorder) all() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []byte
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// decodeStream decodes a concatenation of length-prefixed frames.
func decodeStream(t *testing.T, data []byte) []*xmlcmd.Message {
	t.Helper()
	var out []*xmlcmd.Message
	var fr FrameReader
	r := bytes.NewReader(data)
	for {
		m, err := fr.ReadFrame(r)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decode batched stream: %v", err)
		}
		out = append(out, m)
	}
}

func batchCorpus(n int) []*xmlcmd.Message {
	msgs := make([]*xmlcmd.Message, n)
	for i := range msgs {
		msgs[i] = xmlcmd.NewPing("fd", "ses", uint64(i), uint64(100+i))
	}
	return msgs
}

// TestBatchByteIdentity: a batched writer's byte stream is identical to
// the same frames written one at a time — batching is invisible on the
// wire.
func TestBatchByteIdentity(t *testing.T) {
	msgs := batchCorpus(57)

	var plain bytes.Buffer
	for _, m := range msgs {
		if err := (&FrameWriter{}).WriteFrame(&plain, m); err != nil {
			t.Fatal(err)
		}
	}

	var batched lockedBuffer
	bw := NewBatchWriter(&batched, BatchConfig{})
	for _, m := range msgs {
		if err := bw.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), batched.Bytes()) {
		t.Fatalf("batched stream differs from unbatched: %d vs %d bytes",
			batched.buf.Len(), plain.Len())
	}
}

// TestBatchSizeFlush: with an effectively infinite deadline, reaching
// FlushBytes alone must trigger the flush.
func TestBatchSizeFlush(t *testing.T) {
	rec := &chunkRecorder{}
	bw := NewBatchWriter(rec, BatchConfig{FlushDelay: time.Hour, FlushBytes: 256})
	defer bw.Close()
	msgs := batchCorpus(64) // ~80 wire bytes each: crosses 256 well before 64 frames
	for _, m := range msgs {
		if err := bw.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.chunkCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size threshold did not trigger a flush")
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	first := len(rec.chunks[0])
	rec.mu.Unlock()
	if first < 256 {
		t.Fatalf("size-triggered batch is %d bytes, want >= FlushBytes (256)", first)
	}
}

// TestBatchDeadlineFlush: a lone frame below the size threshold must be
// written once FlushDelay elapses — and not sooner.
func TestBatchDeadlineFlush(t *testing.T) {
	const delay = 80 * time.Millisecond
	rec := &chunkRecorder{}
	bw := NewBatchWriter(rec, BatchConfig{FlushDelay: delay, FlushBytes: 1 << 20})
	defer bw.Close()

	start := time.Now()
	if err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", 1, 42)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.chunkCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline did not trigger a flush")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < delay-10*time.Millisecond {
		t.Fatalf("flushed after %v, want the frame held for ~%v", elapsed, delay)
	}
	if got := decodeStream(t, rec.all()); len(got) != 1 || got[0].Ping.Nonce != 42 {
		t.Fatalf("decoded %d frames, want the queued ping", len(got))
	}
}

// TestBatchFlushKick: an explicit Flush overrides the deadline.
func TestBatchFlushKick(t *testing.T) {
	rec := &chunkRecorder{}
	bw := NewBatchWriter(rec, BatchConfig{FlushDelay: time.Hour, FlushBytes: 1 << 20})
	defer bw.Close()
	if err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", 1, 7)); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for rec.chunkCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("explicit Flush did not trigger a write")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchCloseFlushOrdering: Close drains everything still queued, in
// enqueue order, before returning — even under an hour-long deadline.
func TestBatchCloseFlushOrdering(t *testing.T) {
	rec := &chunkRecorder{}
	bw := NewBatchWriter(rec, BatchConfig{FlushDelay: time.Hour, FlushBytes: 1 << 20})
	msgs := batchCorpus(23)
	for _, m := range msgs {
		if err := bw.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	got := decodeStream(t, rec.all())
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d frames after Close, want %d", len(got), len(msgs))
	}
	for i, m := range got {
		if m.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d: Close flush out of order", i, m.Seq)
		}
	}
	if err := bw.Enqueue(msgs[0]); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrWriterClosed", err)
	}
}

// TestBatchBackpressureDrop: a stalled connection with the DropNewest
// policy rejects overflow frames with ErrBackpressure and counts them,
// then delivers every accepted frame in order once the stall clears.
func TestBatchBackpressureDrop(t *testing.T) {
	rec := &chunkRecorder{gate: make(chan struct{})}
	bw := NewBatchWriter(rec, BatchConfig{MaxQueue: 512, FlushBytes: 128, Policy: DropNewest})

	drops0 := M.TCPBackpressureDrops.Value()
	accepted := 0
	sawDrop := false
	for i := 0; i < 1000; i++ {
		err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", uint64(i), uint64(i)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrBackpressure):
			sawDrop = true
		default:
			t.Fatal(err)
		}
	}
	if !sawDrop {
		t.Fatal("a stalled 512-byte queue accepted 1000 frames without back-pressure")
	}
	if got := M.TCPBackpressureDrops.Value(); got == drops0 {
		t.Fatal("back-pressure drops not counted")
	}
	// Unstall: every accepted frame must come out, in order.
	close(rec.gate)
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	got := decodeStream(t, rec.all())
	if len(got) != accepted {
		t.Fatalf("delivered %d frames, accepted %d", len(got), accepted)
	}
	last := -1
	for _, m := range got {
		if int(m.Seq) <= last {
			t.Fatalf("frames reordered: seq %d after %d", m.Seq, last)
		}
		last = int(m.Seq)
	}
}

// TestBatchBackpressureBlock: under the Block policy a full queue makes
// Enqueue wait until the writer drains instead of dropping.
func TestBatchBackpressureBlock(t *testing.T) {
	rec := &chunkRecorder{gate: make(chan struct{}, 1)}
	bw := NewBatchWriter(rec, BatchConfig{MaxQueue: 512, FlushBytes: 128, Policy: Block})
	defer bw.Close()

	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 50; i++ {
			if err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", uint64(i), uint64(i))); err != nil {
				break
			}
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("50 frames fit a stalled 512-byte queue (%d accepted): Block did not block", n)
	case <-time.After(200 * time.Millisecond):
		// Blocked, as it should be.
	}
	// Admit writes: the blocked sender must finish all 50 frames.
	go func() {
		for {
			select {
			case rec.gate <- struct{}{}:
			case <-bw.done:
				return
			}
		}
	}()
	select {
	case n := <-done:
		if n != 50 {
			t.Fatalf("sender finished only %d/50 frames", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after the writer drained")
	}
}

// TestBatchWriteErrorPropagates: after the connection fails, Enqueue and
// Close report the terminal error instead of buffering into the void.
func TestBatchWriteErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("wire torn")
	bw := NewBatchWriter(writerFunc(func(p []byte) (int, error) { return 0, boom }), BatchConfig{})
	_ = bw.Enqueue(xmlcmd.NewPing("fd", "ses", 1, 1))
	deadline := time.Now().Add(5 * time.Second)
	for bw.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("write error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", 2, 2)); !errors.Is(err, boom) {
		t.Fatalf("Enqueue after failure = %v, want the write error", err)
	}
	if err := bw.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestBatchConcurrentSenders: many goroutines share one writer; each
// goroutine's frames stay in its enqueue order. Run with -race.
func TestBatchConcurrentSenders(t *testing.T) {
	const senders, per = 8, 200
	var buf lockedBuffer
	bw := NewBatchWriter(&buf, BatchConfig{FlushBytes: 1024})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := fmt.Sprintf("c%d", s)
			for i := 0; i < per; i++ {
				if err := bw.Enqueue(xmlcmd.NewPing(from, "sink", uint64(i), uint64(i))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	got := decodeStream(t, buf.Bytes())
	if len(got) != senders*per {
		t.Fatalf("decoded %d frames, want %d", len(got), senders*per)
	}
	next := map[string]uint64{}
	for _, m := range got {
		if m.Seq != next[m.From] {
			t.Fatalf("sender %s: frame seq %d arrived, want %d (per-sender order broken)",
				m.From, m.Seq, next[m.From])
		}
		next[m.From]++
	}
}
