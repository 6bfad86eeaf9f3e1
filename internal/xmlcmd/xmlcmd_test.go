package xmlcmd

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPingRoundTrip(t *testing.T) {
	m := NewPing(AddrFD, AddrSES, 7, 42)
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind() != KindPing || got.From != AddrFD || got.To != AddrSES ||
		got.Seq != 7 || got.Ping.Nonce != 42 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestPongPairsWithPing(t *testing.T) {
	ping := NewPing(AddrFD, AddrRTU, 3, 99)
	pong := new(Pool).Pong(AddrRTU, ping, 2)
	if pong.To != AddrFD || pong.Seq != 3 || pong.Pong.Nonce != 99 || pong.Pong.Incarnation != 2 {
		t.Fatalf("pong mismatch: %+v", pong)
	}
	if err := pong.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCommandParams(t *testing.T) {
	m := NewCommand(AddrSES, AddrRTU, 1, "tune", "freqHz", "437100000", "mode", "fm")
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Command.Name != "tune" {
		t.Fatalf("name = %q", got.Command.Name)
	}
	f, err := got.Command.FloatParam("freqHz")
	if err != nil || f != 437100000 {
		t.Fatalf("FloatParam = %v, %v", f, err)
	}
	if v, ok := got.Command.Param("mode"); !ok || v != "fm" {
		t.Fatalf("Param(mode) = %q, %v", v, ok)
	}
	if _, ok := got.Command.Param("absent"); ok {
		t.Fatal("Param(absent) reported present")
	}
	if _, err := got.Command.FloatParam("mode"); err == nil {
		t.Fatal("FloatParam(mode) should fail to parse")
	}
	if _, err := got.Command.FloatParam("absent"); err == nil {
		t.Fatal("FloatParam(absent) should fail")
	}
}

func TestTelemetryTimestamp(t *testing.T) {
	at := time.Date(2002, 6, 23, 12, 0, 0, 0, time.UTC)
	m := NewTelemetry(AddrSTR, AddrMBus, 5, "el_deg", 42.5, at)
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Telemetry.At().Equal(at) {
		t.Fatalf("At = %v, want %v", got.Telemetry.At(), at)
	}
	if got.Telemetry.Value != 42.5 {
		t.Fatalf("Value = %v", got.Telemetry.Value)
	}
}

func TestSyncRoundTrip(t *testing.T) {
	m := new(Pool).Sync(AddrSES, AddrSTR, 9, 12345)
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind() != KindSync || got.Sync.Epoch != 12345 {
		t.Fatalf("sync mismatch: %+v", got)
	}
	ack := new(Pool).SyncAck(AddrSTR, AddrSES, 10, got.Sync.Epoch)
	if err := ack.Validate(); err != nil {
		t.Fatalf("Validate ack: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name string
		m    *Message
		want error
	}{
		{"no body", &Message{From: "a", To: "b"}, ErrNoBody},
		{"missing from", &Message{To: "b", Ping: &Ping{}}, ErrMissingFrom},
		{"missing to", &Message{From: "a", Ping: &Ping{}}, ErrMissingTo},
		{
			"two bodies",
			&Message{From: "a", To: "b", Ping: &Ping{}, Pong: &Pong{}},
			ErrMultipleBody,
		},
		{
			"empty command",
			&Message{From: "a", To: "b", Command: &Command{}},
			ErrEmptyCommand,
		},
		{
			"empty event",
			&Message{From: "a", To: "b", Event: &Event{}},
			ErrEmptyEvent,
		},
		{
			"empty telemetry key",
			&Message{From: "a", To: "b", Telemetry: &Telemetry{}},
			ErrBadTelemetry,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); err != tt.want {
				t.Fatalf("Validate = %v, want %v", err, tt.want)
			}
			if _, err := Encode(tt.m); err != tt.want {
				t.Fatalf("Encode = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("<message><unclosed")); err == nil {
		t.Fatal("Decode accepted malformed XML")
	}
	if _, err := Decode([]byte("<message from='a' to='b'/>")); err != ErrNoBody {
		t.Fatalf("Decode empty envelope = %v, want ErrNoBody", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	m := new(Pool).Event("a", "b", 1, "e", big)
	if _, err := Encode(m); err != ErrFrameTooLarge {
		t.Fatalf("Encode oversized = %v, want ErrFrameTooLarge", err)
	}
	if _, err := Decode(make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("Decode oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestKindString(t *testing.T) {
	if KindPing.String() != "ping" || KindInvalid.String() != "invalid" {
		t.Fatal("Kind.String mismatch")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string should include number")
	}
}

func TestMessageString(t *testing.T) {
	s := NewPing(AddrFD, AddrSES, 7, 1).String()
	for _, want := range []string{AddrFD, AddrSES, "ping", "7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// Property: every well-formed event message round-trips through the codec
// unchanged.
func TestPropertyEventRoundTrip(t *testing.T) {
	f := func(from, to, name, detail string, seq uint64) bool {
		if from == "" || to == "" || name == "" {
			return true // not well-formed; out of scope
		}
		if !validXMLText(from) || !validXMLText(to) || !validXMLText(name) || !validXMLText(detail) {
			return true
		}
		m := new(Pool).Event(from, to, seq, name, detail)
		b, err := Encode(m)
		if err != nil {
			return len(b) == 0 // oversized frames may be rejected
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return got.From == from && got.To == to && got.Seq == seq &&
			got.Event.Name == name && got.Event.Detail == detail
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// validXMLText filters out characters encoding/xml cannot represent: it
// replaces anything outside the XML character range (control characters,
// U+FFFE, U+FFFF) with U+FFFD on marshal, so such strings cannot round-trip.
func validXMLText(s string) bool {
	for _, r := range s {
		if !isXMLChar(r) || r == 0xFFFD {
			return false
		}
	}
	return true
}

// Property: seq numbers survive the codec for ping/pong pairing at any
// value including extremes.
func TestPropertySeqPreserved(t *testing.T) {
	f := func(seq, nonce uint64) bool {
		b, err := Encode(NewPing("a", "b", seq, nonce))
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Ping.Nonce == nonce
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
