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
	bw := NewBatchWriter(&batched, Block)
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

// heldWriter passes writes to w once release is closed. It holds a batch
// open: frames queued behind the held write stay pending until the test
// lets go.
type heldWriter struct {
	w       io.Writer
	release chan struct{}
}

func (h heldWriter) Write(p []byte) (int, error) {
	<-h.release
	return h.w.Write(p)
}

// TestBatchCloseFlushOrdering: Close drains everything still queued, in
// enqueue order, before returning. The writer is held until Close has
// begun, so the frames are still pending when it does.
func TestBatchCloseFlushOrdering(t *testing.T) {
	var buf lockedBuffer
	release := make(chan struct{})
	bw := NewBatchWriter(heldWriter{&buf, release}, Block)
	msgs := batchCorpus(23)
	for _, m := range msgs {
		if err := bw.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- bw.Close() }()
	waitFor(t, "Close to begin", func() bool {
		bw.mu.Lock()
		defer bw.mu.Unlock()
		return bw.closed
	})
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	got := decodeStream(t, buf.Bytes())
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

// overflowFrames is a frame count whose pings overflow a stalled queue
// twice over.
func overflowFrames(t *testing.T) int {
	var frame bytes.Buffer
	if err := (&FrameWriter{}).WriteFrame(&frame, xmlcmd.NewPing("fd", "ses", 0, 0)); err != nil {
		t.Fatal(err)
	}
	return 2 * maxQueue / frame.Len()
}

// TestBatchBackpressureDrop: a stalled connection with the DropNewest
// policy rejects overflow frames with ErrBackpressure and counts them,
// then delivers every accepted frame in order once the stall clears.
func TestBatchBackpressureDrop(t *testing.T) {
	rec := &chunkRecorder{gate: make(chan struct{})}
	bw := NewBatchWriter(rec, DropNewest)

	drops0 := M.TCPBackpressureDrops.Value()
	accepted := 0
	sawDrop := false
	n := overflowFrames(t)
	for i := 0; i < n; i++ {
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
		t.Fatalf("a stalled %d-byte queue accepted %d frames without back-pressure", maxQueue, n)
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
	bw := NewBatchWriter(rec, Block)
	defer bw.Close()

	want := overflowFrames(t)
	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < want; i++ {
			if err := bw.Enqueue(xmlcmd.NewPing("fd", "ses", uint64(i), uint64(i))); err != nil {
				break
			}
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("%d frames fit a stalled %d-byte queue (%d accepted): Block did not block", want, maxQueue, n)
	case <-time.After(200 * time.Millisecond):
		// Blocked, as it should be.
	}
	// Admit writes: the blocked sender must finish all its frames.
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
		if n != want {
			t.Fatalf("sender finished only %d/%d frames", n, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after the writer drained")
	}
}

// TestBatchWriteErrorPropagates: after the connection fails, Enqueue and
// Close report the terminal error instead of buffering into the void.
func TestBatchWriteErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("wire torn")
	bw := NewBatchWriter(writerFunc(func(p []byte) (int, error) { return 0, boom }), Block)
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
	bw := NewBatchWriter(&buf, Block)
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
