package bus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// FuzzReadFrame feeds arbitrary byte streams to the wire-frame reader: a
// corrupt length prefix or payload must produce an error, never a panic,
// and an oversized header must be rejected before any payload buffer is
// allocated (a 4 GB length prefix is a one-frame denial of service
// otherwise).
func FuzzReadFrame(f *testing.F) {
	frame := func(m *xmlcmd.Message) []byte {
		var buf bytes.Buffer
		if err := (&FrameWriter{}).WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	ping := frame(xmlcmd.NewPing("fd", "ses", 1, 42))
	reg := frame(xmlcmd.NewCommand("ses", "mbus", 2, "register"))
	f.Add(ping)
	f.Add(reg)
	f.Add(append(ping, reg...)) // back-to-back frames
	f.Add(ping[:len(ping)-3])   // truncated payload
	f.Add(ping[:2])             // truncated header
	f.Add([]byte{})

	// Hostile length prefixes: huge, and huge-with-tiny-payload.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], 0xFFFFFFFF)
	f.Add(huge[:])
	f.Add(append(huge[:], []byte("<msg/>")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := (&FrameReader{}).ReadFrame(r)
		if err != nil {
			if len(data) >= frameHeader {
				if n := binary.BigEndian.Uint32(data[:frameHeader]); n > xmlcmd.MaxFrame && !errors.Is(err, xmlcmd.ErrFrameTooLarge) {
					t.Fatalf("oversized length prefix %d rejected with %v, want ErrFrameTooLarge", n, err)
				}
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ReadFrame accepted an invalid message: %v", verr)
		}
		// A successfully read frame must round-trip through the writer.
		var buf bytes.Buffer
		if werr := (&FrameWriter{}).WriteFrame(&buf, m); werr != nil {
			t.Fatalf("read frame does not re-write: %v", werr)
		}
	})
}

// FuzzReadBatchedFrames pins the batching invariant at the byte level: a
// message sequence pushed through a BatchWriter must produce a stream
// byte-identical to the same frames written one at a time, and that
// stream must decode back into the same number of valid frames. Batching
// may change how bytes are grouped into Write calls, never the bytes.
func FuzzReadBatchedFrames(f *testing.F) {
	f.Add("fd", "ses", uint64(1), uint64(42), "overload", "detail", uint16(0b10101))
	f.Add("a", "b", uint64(0), uint64(0), "", "", uint16(0))
	f.Add("x<&>", "y\"'", uint64(9), uint64(7), "na<me", "de&tail\n", uint16(0xFFFF))

	f.Fuzz(func(t *testing.T, from, to string, seq, nonce uint64, name, detail string, kinds uint16) {
		// Derive up to 16 messages of mixed kinds from the fuzz inputs.
		var msgs []*xmlcmd.Message
		ping := xmlcmd.NewPing(from, to, seq, nonce)
		for i := 0; i < 16; i++ {
			switch (kinds >> i) & 0b11 {
			case 0:
				msgs = append(msgs, xmlcmd.NewPing(from, to, seq+uint64(i), nonce+uint64(i)))
			case 1:
				msgs = append(msgs, new(xmlcmd.Pool).Pong(from, ping, i))
			case 2:
				msgs = append(msgs, xmlcmd.NewCommand(from, to, seq+uint64(i), name, "k", detail))
			case 3:
				msgs = append(msgs, new(xmlcmd.Pool).Event(from, to, seq+uint64(i), name, detail))
			}
		}

		// Reference stream: every encodable message written frame-at-a-
		// time. Messages the codec rejects are skipped on both paths.
		// The stream stops short of the send-queue bound, so the held
		// writers below never block or drop a sender.
		var plain bytes.Buffer
		var kept []*xmlcmd.Message
		var fw FrameWriter
		for _, m := range msgs {
			if plain.Len() >= maxQueue {
				break
			}
			if err := fw.WriteFrame(&plain, m); err == nil {
				kept = append(kept, m)
			}
		}

		// Batched stream: same messages through the batch writer, held
		// until every frame is queued so they batch behind the first write.
		var batched lockedBuffer
		release := make(chan struct{})
		bw := NewBatchWriter(heldWriter{&batched, release}, Block)
		for _, m := range kept {
			if err := bw.Enqueue(m); err != nil {
				t.Fatalf("Enqueue rejected a message WriteFrame accepted: %v", err)
			}
		}
		close(release)
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}

		got := batched.Bytes()
		if !bytes.Equal(got, plain.Bytes()) {
			t.Fatalf("batched stream differs from unbatched: %d vs %d bytes", len(got), plain.Len())
		}
		decoded := decodeStream(t, got)
		if len(decoded) != len(kept) {
			t.Fatalf("batched stream decoded to %d frames, want %d", len(decoded), len(kept))
		}
		for i, m := range decoded {
			if err := m.Validate(); err != nil {
				t.Fatalf("frame %d decoded invalid: %v", i, err)
			}
		}

		// The broker's hop: route each frame on its start tag, forward the
		// bytes as read.
		var forwarded lockedBuffer
		release = make(chan struct{})
		fbw := NewBatchWriter(heldWriter{&forwarded, release}, DropNewest)
		var fr FrameReader
		r := bytes.NewReader(got)
		for _, m := range decoded {
			frame, err := fr.next(r)
			if err != nil {
				t.Fatalf("re-reading the batched stream: %v", err)
			}
			hdr, err := fr.dec.DecodeHeader(frame[frameHeader:])
			if err != nil || hdr.To != m.To {
				t.Fatalf("frame for %q routes to %q, %v", m.To, hdr.To, err)
			}
			if err := fbw.EnqueueFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		if err := fbw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(forwarded.Bytes(), got) {
			t.Fatalf("forwarded stream differs from the one received: %d vs %d bytes", len(forwarded.Bytes()), len(got))
		}
	})
}
