package bus

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// countingWriter records every Write call so tests can assert how many
// syscalls a frame costs.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestFrameWriterSingleWrite(t *testing.T) {
	var fw FrameWriter
	var w countingWriter
	msgs := []*xmlcmd.Message{
		xmlcmd.NewPing("fd", "ses", 1, 42),
		xmlcmd.NewCommand("ses", "rtu", 2, "tune", "freqHz", "437100000"),
		xmlcmd.NewAck("rtu", "ses", 3, 2, true, ""),
	}
	for _, m := range msgs {
		if err := fw.WriteFrame(&w, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if w.writes != len(msgs) {
		t.Fatalf("WriteFrame issued %d writes for %d frames, want one each", w.writes, len(msgs))
	}
	// The buffered frames must be readable by the package-level ReadFrame,
	// i.e. header+payload composition did not change the wire format.
	r := bytes.NewReader(w.buf.Bytes())
	for _, want := range msgs {
		got, err := (&FrameReader{}).ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.From != want.From || got.Seq != want.Seq || got.Kind() != want.Kind() {
			t.Fatalf("round trip mismatch: got %v want %v", got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all frames", r.Len())
	}
}

func TestFrameWriterRejectsInvalid(t *testing.T) {
	var fw FrameWriter
	var w countingWriter
	if err := fw.WriteFrame(&w, &xmlcmd.Message{From: "a", To: "b"}); err != xmlcmd.ErrNoBody {
		t.Fatalf("WriteFrame invalid = %v, want ErrNoBody", err)
	}
	if w.writes != 0 {
		t.Fatal("rejected frame must not reach the socket")
	}
}

func TestFrameReaderInto(t *testing.T) {
	var fw FrameWriter
	var buf bytes.Buffer
	msgs := []*xmlcmd.Message{
		xmlcmd.NewPing("fd", "ses", 1, 7),
		new(xmlcmd.Pool).Event("fd", "rec", 2, "failure", "ses"),
		xmlcmd.NewPing("fd", "rtu", 3, 9),
	}
	for _, m := range msgs {
		if err := fw.WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	var fr FrameReader
	var m xmlcmd.Message
	for _, want := range msgs {
		if err := fr.ReadFrameInto(&buf, &m); err != nil {
			t.Fatalf("ReadFrameInto: %v", err)
		}
		if m.To != want.To || m.Seq != want.Seq || m.Kind() != want.Kind() {
			t.Fatalf("got %v want %v", &m, want)
		}
	}
	// The event's stale body pointer must not survive into the next frame.
	if m.Event != nil {
		t.Fatal("body pointer from an earlier frame leaked through reuse")
	}
	if err := fr.ReadFrameInto(&buf, &m); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestFrameReaderOversized(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var fr FrameReader
	if _, err := fr.ReadFrame(bytes.NewReader(hdr)); err != xmlcmd.ErrFrameTooLarge {
		t.Fatalf("oversized header = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameSteadyStateAllocs pins the whole wire hot path: once the
// writer's buffer and the reader's buffer, token cache and destination
// message are warm, framing costs zero allocations on the write side and,
// on the read side, one per text parameter value — the only strings of a
// frame nothing repeats (a value in the encoder's form of a number decodes
// as that number and costs none; these two are text). ReadFrame adds
// exactly the fresh Message it hands out.
func TestFrameSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *xmlcmd.Message
		read float64
	}{
		{"ping", xmlcmd.NewPing("fd", "ses", 1, 42), 0},
		{"command", xmlcmd.NewCommand("gate", "rtu", 2, "tune", "freqHz", "437512345.5", "mode", "fm-narrow"), 2},
		{"ack", xmlcmd.NewAck("rtu", "gate", 3, 2, true, ""), 0},
		{"telemetry", xmlcmd.NewTelemetry("rtu", "str", 4, "az", 181.5, time.UnixMilli(1020000000000)), 0},
	} {
		var fw FrameWriter
		if err := fw.WriteFrame(io.Discard, tc.msg); err != nil { // warm the buffer
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := fw.WriteFrame(io.Discard, tc.msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: FrameWriter.WriteFrame allocates %v/op in steady state, want 0", tc.name, n)
		}

		var frame bytes.Buffer
		if err := fw.WriteFrame(&frame, tc.msg); err != nil {
			t.Fatal(err)
		}
		var fr FrameReader
		var dst xmlcmd.Message
		r := bytes.NewReader(frame.Bytes())
		if err := fr.ReadFrameInto(r, &dst); err != nil { // warm buffer, cache and scratch
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			r.Reset(frame.Bytes())
			if err := fr.ReadFrameInto(r, &dst); err != nil {
				t.Fatal(err)
			}
		}); n != tc.read {
			t.Errorf("%s: FrameReader.ReadFrameInto allocates %v/op in steady state, want %v", tc.name, n, tc.read)
		}
		if dst.Kind() != tc.msg.Kind() || dst.Seq != tc.msg.Seq || dst.To != tc.msg.To {
			t.Errorf("%s: steady-state decode corrupted the message: %v", tc.name, &dst)
		}
	}
}
