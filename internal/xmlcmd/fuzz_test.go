package xmlcmd

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

// FuzzDecode throws arbitrary bytes at the codec: whatever the fabric
// delivers, Decode must return a validated message or an error — never
// panic, and never accept a frame its own Validate would reject.
func FuzzDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if len(data) > MaxFrame {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized frame (%d bytes) decoded to %v, %v", len(data), m, err)
			}
			return
		}
		if err != nil {
			return
		}
		// Anything Decode accepts must satisfy the same invariants the
		// system relies on: it validates and re-encodes.
		if verr := m.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid message: %v", verr)
		}
		if _, eerr := Encode(m); eerr != nil {
			t.Fatalf("decoded message does not re-encode: %v", eerr)
		}
	})
}

// addDecodeSeeds adds the decoder corpus: every message kind, truncated
// and lightly corrupted variants of each, and start-tag garbage.
func addDecodeSeeds(f *testing.F) {
	seedMsgs := []*Message{
		NewPing("fd", "ses", 1, 42),
		new(Pool).Pong("ses", NewPing("fd", "ses", 2, 43), 3),
		NewCommand("rec", "mbus", 4, "register"),
		NewCommand("fedr", "pbcom", 5, "tune", "freq", "437.5"),
		numCommand("ses", "rtu", 5, "tune", "freqHz", 4.371029653146064e+08),
		NewAck("pbcom", "fedr", 6, 5, true, ""),
		NewTelemetry("rtu", "str", 7, "az", 181.5, time.Unix(1020000000, 0).UTC()),
		new(Pool).Event("fd", "rec", 8, "failure", "ses"),
		new(Pool).Sync("ses", "str", 9, 1020000000),
		new(Pool).SyncAck("str", "ses", 10, 1020000000),
	}
	for _, m := range seedMsgs {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Truncated and lightly corrupted variants of real frames.
		f.Add(b[:len(b)/2])
		f.Add(bytes.Replace(b, []byte("<"), []byte("&"), 2))
	}
	f.Add([]byte(""))
	f.Add([]byte("<msg>"))
	f.Add(bytes.Repeat([]byte("<msg from=\"a\" to=\"b\">"), 100))
}

// FuzzDecodeHeader holds the broker's start-tag parse to the endpoint's
// full decode on arbitrary input: it never panics; every frame DecodeInto
// accepts has a header with the same From/To/Seq (valid traffic can never
// be unroutable, or routed by other values than the receiver will see); and
// a frame whose start tag is rejected is a frame DecodeInto rejects too
// (the broker disconnects nobody the endpoint would have listened to).
func FuzzDecodeHeader(f *testing.F) {
	addDecodeSeeds(f)
	f.Add([]byte(`<message from='a' to = "b&#x41;" seq='1' x="y"/>`))
	f.Add([]byte(`<message from="a" to="b" seq="1"><ping nonce="oops"`))
	f.Add([]byte(`<message from="a" to="b" xmlns="urn:x" seq="1"><ping nonce="1"/></message>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder // a fresh cache and a warm one must agree
		for pass := 0; pass < 2; pass++ {
			hdr, herr := dec.DecodeHeader(data)
			var m Message
			derr := dec.DecodeInto(data, &m)
			switch {
			case derr == nil && herr != nil:
				t.Fatalf("DecodeInto accepts a frame DecodeHeader rejects (%v): %q", herr, data)
			case derr == nil && (hdr != Header{m.From, m.To, m.Seq}):
				t.Fatalf("header %+v, message %s->%s #%d: %q", hdr, m.From, m.To, m.Seq, data)
			case herr == nil && (hdr.From == "" || hdr.To == ""):
				t.Fatalf("DecodeHeader accepted an unaddressed frame: %+v from %q", hdr, data)
			}
		}
	})
}

// FuzzCodecDiff cross-checks the hand-rolled decoder against encoding/xml
// on arbitrary input. The contract is one-sided by design: the hand-rolled
// parser may reject XML machinery it doesn't speak (comments, namespaces,
// unknown elements — rejecting a frame just tears down the connection),
// but everything it ACCEPTS, encoding/xml must accept with an identical
// message, and both encoders must re-encode that message to identical
// bytes. Any divergence here is a silent wire-format fork.
func FuzzCodecDiff(f *testing.F) {
	seedMsgs := []*Message{
		NewPing("fd", "ses", 1, 42),
		new(Pool).Pong("ses", NewPing("fd", "ses", 2, 43), 3),
		NewCommand("rec", "mbus", 4, "register"),
		NewCommand("fedr", "pbcom", 5, "tune", "freq", "437.5"),
		numCommand("ses", "str", 5, "point", "azRad", 4.9807672363561, "elRad", -0.5433825307141718),
		NewAck("pbcom", "fedr", 6, 5, false, "radio said \"no\" & <hung>"),
		NewTelemetry("rtu", "str", 7, "az", 181.5, time.Unix(1020000000, 0).UTC()),
		new(Pool).Event("fd", "rec", 8, "failure", "ses"),
		new(Pool).Sync("ses", "str", 9, 1020000000),
		new(Pool).SyncAck("str", "ses", 10, 1020000000),
		{From: "ses", To: "fd", Seq: 11, Health: &Health{Incarnation: 2, UptimeMs: 5, AgeScore: 0.5, Suspect: true}},
	}
	for _, m := range seedMsgs {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Variants the strict parser treats differently from the canonical
	// form: quoting, self-closing, entities, whitespace, duplicates.
	f.Add([]byte(`<message from='a' to='b' seq='1'><ping nonce='2'/></message>`))
	f.Add([]byte(`<message from="&#97;&lt;" to="b" seq="1"><ack of="3" ok="True"/></message>`))
	f.Add([]byte("<message from=\"a\rb\" to = 'b' seq='1'>\n<ping nonce='1'/><ping nonce='2'/>\n</message>\n"))
	f.Add([]byte(`<message from="a" to="b" seq="1" x="y"><command name="c"><param key="k" value="&#x41;"/></command></message>`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := DecodeInto(data, &m); err != nil {
			// The hand-rolled parser is allowed to be stricter than
			// encoding/xml; rejection needs no cross-check.
			return
		}
		std, err := StdDecode(data)
		if err != nil {
			t.Fatalf("hand-rolled decoder accepted what encoding/xml rejects (%v): %q", err, data)
		}
		diffMessages(t, &m, std, data)
		fast, ferr := Encode(&m)
		slow, serr := StdEncode(std)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("re-encode disagreement: fast err %v, std err %v on %q", ferr, serr, data)
		}
		if ferr == nil && !bytes.Equal(fast, slow) {
			t.Fatalf("re-encoded bytes diverged:\nfast: %q\n std: %q\n  on: %q", fast, slow, data)
		}
	})
}

// diffMessages fails the test when two decoded messages differ in any
// wire-visible field (the unexported scratch is ignored; nil and empty
// param slices are equal).
func diffMessages(t *testing.T, a, b *Message, data []byte) {
	t.Helper()
	fail := func(field string, av, bv any) {
		t.Fatalf("decoders diverged on %q: %s = %v vs %v", data, field, av, bv)
	}
	if a.XMLName != b.XMLName {
		fail("XMLName", a.XMLName, b.XMLName)
	}
	if a.From != b.From || a.To != b.To || a.Seq != b.Seq {
		fail("envelope", []any{a.From, a.To, a.Seq}, []any{b.From, b.To, b.Seq})
	}
	if (a.Ping == nil) != (b.Ping == nil) || a.Ping != nil && *a.Ping != *b.Ping {
		fail("ping", a.Ping, b.Ping)
	}
	if (a.Pong == nil) != (b.Pong == nil) || a.Pong != nil && *a.Pong != *b.Pong {
		fail("pong", a.Pong, b.Pong)
	}
	if (a.Command == nil) != (b.Command == nil) {
		fail("command", a.Command, b.Command)
	}
	if a.Command != nil {
		if a.Command.Name != b.Command.Name || !sameParamSlices(a.Command.Params, b.Command.Params) {
			fail("command", a.Command, b.Command)
		}
	}
	if (a.Ack == nil) != (b.Ack == nil) || a.Ack != nil && *a.Ack != *b.Ack {
		fail("ack", a.Ack, b.Ack)
	}
	if (a.Telemetry == nil) != (b.Telemetry == nil) {
		fail("telemetry", a.Telemetry, b.Telemetry)
	}
	if a.Telemetry != nil {
		x, y := *a.Telemetry, *b.Telemetry
		nanBoth := math.IsNaN(x.Value) && math.IsNaN(y.Value)
		if x.Key != y.Key || x.AtUnixMilli != y.AtUnixMilli || (x.Value != y.Value && !nanBoth) {
			fail("telemetry", x, y)
		}
	}
	if (a.Event == nil) != (b.Event == nil) {
		fail("event", a.Event, b.Event)
	}
	if a.Event != nil {
		if a.Event.Name != b.Event.Name || a.Event.Detail != b.Event.Detail ||
			!sameParamSlices(a.Event.Params, b.Event.Params) {
			fail("event", a.Event, b.Event)
		}
	}
	if (a.Sync == nil) != (b.Sync == nil) || a.Sync != nil && *a.Sync != *b.Sync {
		fail("sync", a.Sync, b.Sync)
	}
	if (a.SyncAck == nil) != (b.SyncAck == nil) || a.SyncAck != nil && *a.SyncAck != *b.SyncAck {
		fail("syncack", a.SyncAck, b.SyncAck)
	}
	if (a.Health == nil) != (b.Health == nil) || a.Health != nil && *a.Health != *b.Health {
		fail("health", a.Health, b.Health)
	}
}

// sameParamSlices compares parameters by key and text: the hand-rolled
// decoder keeps a value in the encoder's form of a number as that number,
// encoding/xml keeps every value as text, and the wire cannot tell them
// apart.
func sameParamSlices(a, b []Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Text() != b[i].Text() {
			return false
		}
	}
	return true
}
