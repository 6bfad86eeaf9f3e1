package xmlcmd

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// codecCorpus is every message shape the station puts on the wire, plus
// the awkward ones: optional attributes present and absent, XML
// metacharacters, non-ASCII text, extreme numbers.
func codecCorpus() []*Message {
	return []*Message{
		NewPing(AddrFD, AddrSES, 1, 42),
		NewPing(AddrFD, AddrMBus, 0, 0),
		NewPing("a", "b", math.MaxUint64, math.MaxUint64),
		new(Pool).Pong(AddrSES, NewPing(AddrFD, AddrSES, 2, 43), 3),
		new(Pool).Pong(AddrSES, NewPing(AddrFD, AddrSES, 2, 43), 0),
		NewCommand(AddrREC, AddrMBus, 4, "register"),
		NewCommand(AddrFedr, AddrPbcom, 5, "tune", "freq", "437.5", "mode", "fm"),
		NewCommand("x", "y", 6, "escape&<>\"'", "key&", "<value>", "'quoted'", "\"double\""),
		NewCommand("x", "y", 6, "tabs\tand\nnewlines\rand", "k", "v"),
		NewCommand("x", "y", 7, "unicode", "λ", "ω→α", "emoji", "🛰"),
		NewAck(AddrPbcom, AddrFedr, 8, 5, true, ""),
		NewAck(AddrPbcom, AddrFedr, 9, 5, false, "tune failed: <radio> said \"no\" & hung"),
		NewTelemetry(AddrRTU, AddrSTR, 10, "az", 181.5, time.Unix(1020000000, 0).UTC()),
		NewTelemetry(AddrRTU, AddrSTR, 11, "el", -0.25, time.UnixMilli(-12345)),
		NewTelemetry(AddrRTU, AddrSTR, 12, "inf", math.Inf(1), time.UnixMilli(0)),
		NewTelemetry(AddrRTU, AddrSTR, 13, "nan", math.NaN(), time.UnixMilli(0)),
		NewTelemetry(AddrRTU, AddrSTR, 14, "tiny", 5e-324, time.UnixMilli(1)),
		new(Pool).Event(AddrFD, AddrREC, 15, "failure", "ses"),
		new(Pool).Event(AddrFD, AddrREC, 16, "pass-start", ""), // detail omitted
		func() *Message {
			m := new(Pool).Event(AddrFD, AddrREC, 17, "link", "lost")
			m.Event.Params = []Param{{Key: "hops", Value: "4"}, {Key: "why", Value: "a&b"}}
			return m
		}(),
		new(Pool).Sync(AddrSES, AddrSTR, 18, 1020000000),
		new(Pool).Sync(AddrSES, AddrSTR, 19, math.MinInt64),
		new(Pool).SyncAck(AddrSTR, AddrSES, 20, math.MaxInt64),
		{
			From: AddrSES, To: AddrFD, Seq: 21,
			Health: &Health{Incarnation: 2, UptimeMs: 123456, QueueDepth: 7, AgeScore: 0.125, Warnings: 3, Suspect: true},
		},
		{
			From: AddrSES, To: AddrFD, Seq: 22,
			Health: &Health{AgeScore: -1e300},
		},
	}
}

// sameMessage compares decoded messages, treating nil and empty param
// slices as equal (encoding/xml leaves absent params nil; the reusing
// decoder keeps an empty slice) and ignoring the unexported scratch.
func sameMessage(t *testing.T, got, want *Message) {
	t.Helper()
	if got.XMLName != want.XMLName {
		t.Fatalf("XMLName = %v, want %v", got.XMLName, want.XMLName)
	}
	if got.From != want.From || got.To != want.To || got.Seq != want.Seq {
		t.Fatalf("envelope = %s->%s #%d, want %s->%s #%d",
			got.From, got.To, got.Seq, want.From, want.To, want.Seq)
	}
	samePtr := func(name string, g, w any, gNil, wNil bool) {
		if gNil != wNil {
			t.Fatalf("%s: got nil=%v, want nil=%v", name, gNil, wNil)
		}
	}
	samePtr("ping", got.Ping, want.Ping, got.Ping == nil, want.Ping == nil)
	if got.Ping != nil && *got.Ping != *want.Ping {
		t.Fatalf("ping = %+v, want %+v", *got.Ping, *want.Ping)
	}
	samePtr("pong", got.Pong, want.Pong, got.Pong == nil, want.Pong == nil)
	if got.Pong != nil && *got.Pong != *want.Pong {
		t.Fatalf("pong = %+v, want %+v", *got.Pong, *want.Pong)
	}
	samePtr("command", got.Command, want.Command, got.Command == nil, want.Command == nil)
	if got.Command != nil {
		if got.Command.Name != want.Command.Name {
			t.Fatalf("command name = %q, want %q", got.Command.Name, want.Command.Name)
		}
		sameParams(t, got.Command.Params, want.Command.Params)
	}
	samePtr("ack", got.Ack, want.Ack, got.Ack == nil, want.Ack == nil)
	if got.Ack != nil && *got.Ack != *want.Ack {
		t.Fatalf("ack = %+v, want %+v", *got.Ack, *want.Ack)
	}
	samePtr("telemetry", got.Telemetry, want.Telemetry, got.Telemetry == nil, want.Telemetry == nil)
	if got.Telemetry != nil {
		g, w := *got.Telemetry, *want.Telemetry
		// NaN != NaN; compare bit-compatibly.
		if g.Key != w.Key || g.AtUnixMilli != w.AtUnixMilli ||
			(g.Value != w.Value && !(math.IsNaN(g.Value) && math.IsNaN(w.Value))) {
			t.Fatalf("telemetry = %+v, want %+v", g, w)
		}
	}
	samePtr("event", got.Event, want.Event, got.Event == nil, want.Event == nil)
	if got.Event != nil {
		if got.Event.Name != want.Event.Name || got.Event.Detail != want.Event.Detail {
			t.Fatalf("event = %+v, want %+v", *got.Event, *want.Event)
		}
		sameParams(t, got.Event.Params, want.Event.Params)
	}
	samePtr("sync", got.Sync, want.Sync, got.Sync == nil, want.Sync == nil)
	if got.Sync != nil && *got.Sync != *want.Sync {
		t.Fatalf("sync = %+v, want %+v", *got.Sync, *want.Sync)
	}
	samePtr("syncack", got.SyncAck, want.SyncAck, got.SyncAck == nil, want.SyncAck == nil)
	if got.SyncAck != nil && *got.SyncAck != *want.SyncAck {
		t.Fatalf("syncack = %+v, want %+v", *got.SyncAck, *want.SyncAck)
	}
	samePtr("health", got.Health, want.Health, got.Health == nil, want.Health == nil)
	if got.Health != nil && *got.Health != *want.Health {
		t.Fatalf("health = %+v, want %+v", *got.Health, *want.Health)
	}
}

// sameParams compares parameters by what the wire carries: the key and
// the text, byte for byte. A decoded parameter may hold its value as a
// number where the sender wrote text, or the other way round.
func sameParams(t *testing.T, got, want []Param) {
	t.Helper()
	if !sameParamSlices(got, want) {
		t.Fatalf("params = %+v, want %+v", got, want)
	}
}

// TestCorpusEquivalence is the structural correctness proof for the
// hand-rolled codec: for the whole corpus, (1) the new encoder's bytes
// are identical to encoding/xml's, (2) encoding/xml decodes the new
// encoder's output back to the original message, and (3) the new decoder
// reads the old encoder's output back to the original message.
func TestCorpusEquivalence(t *testing.T) {
	for _, m := range codecCorpus() {
		fast, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%s): %v", m, err)
		}
		std, err := StdEncode(m)
		if err != nil {
			t.Fatalf("StdEncode(%s): %v", m, err)
		}
		if !bytes.Equal(fast, std) {
			t.Fatalf("encoder output diverged for %s:\n fast: %s\n  std: %s", m, fast, std)
		}
		byStd, err := StdDecode(fast)
		if err != nil {
			t.Fatalf("StdDecode(fast %s): %v", fast, err)
		}
		sameMessage(t, byStd, withXMLName(m))
		byFast, err := Decode(std)
		if err != nil {
			t.Fatalf("Decode(std %s): %v", std, err)
		}
		sameMessage(t, byFast, withXMLName(m))
	}
}

// withXMLName returns a copy of m with XMLName populated the way both
// decoders report it.
func withXMLName(m *Message) *Message {
	c := *m
	c.XMLName.Local = "message"
	return &c
}

// TestDecodeIntoReuse drives one reused Message through every corpus
// shape in sequence: scratch reuse must never leak state between frames.
func TestDecodeIntoReuse(t *testing.T) {
	var m Message
	corpus := codecCorpus()
	// Interleave so each decode follows a different body kind.
	for i := 0; i < 2; i++ {
		for _, want := range corpus {
			b, err := Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(b, &m); err != nil {
				t.Fatalf("DecodeInto(%s): %v", b, err)
			}
			sameMessage(t, &m, withXMLName(want))
		}
	}
}

// TestCodecZeroAlloc pins the wire path's whole point: encoding allocates
// nothing, and decoding into a warm message through a warm connection
// Decoder allocates only the strings nothing repeats — one per text
// parameter value. A value in the encoder's form of a number decodes as
// that number and costs nothing. Addresses, command names and parameter
// and telemetry keys come from the token cache; no element costs a closure.
func TestCodecZeroAlloc(t *testing.T) {
	ping := NewPing(AddrFD, AddrSES, 7, 42)
	buf := make([]byte, 0, 256)
	var m Message
	var dec Decoder
	for _, tc := range []struct {
		name   string
		msg    *Message
		decode float64 // allocations per decode
	}{
		{"ping", ping, 0},
		{"pong", new(Pool).Pong(AddrSES, ping, 3), 0},
		{"command", NewCommand("gate", AddrRTU, 8, "tune", "freqHz", "4.375123455e+08", "mode", "fm-narrow"), 1},
		{"ack", NewAck(AddrRTU, "gate", 9, 8, true, ""), 0},
		{"telemetry", NewTelemetry(AddrRTU, AddrSTR, 10, "az", 181.5, time.UnixMilli(1020000000000)), 0},
	} {
		// Warm the scratch, the token cache and the buffer outside the
		// measured region.
		var err error
		buf, err = AppendEncode(buf[:0], tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(buf, &m); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := AppendEncode(buf[:0], tc.msg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s encode: %v allocs/op, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := dec.DecodeInto(buf, &m); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.decode {
			t.Errorf("%s decode: %v allocs/op, want %v", tc.name, allocs, tc.decode)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := dec.DecodeHeader(buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s header: %v allocs/op, want 0", tc.name, allocs)
		}
		sameMessage(t, &m, withXMLName(tc.msg))
	}
}

// TestDecodeHeader covers the broker's view of a frame: the start tag's
// three values under the decoder's own quoting and entity rules, nothing of
// the body, and the rejections DecodeInto makes at the same place.
func TestDecodeHeader(t *testing.T) {
	var dec Decoder
	for _, tc := range []struct {
		in   string
		want Header
	}{
		{`<message from="fd" to="ses" seq="7"><ping nonce="1"></ping></message>`, Header{"fd", "ses", 7}},
		{` <message to = 'b' seq='2' from='a&amp;' extra="x"/>`, Header{"a&", "b", 2}},
		{`<message from="a" to="b" seq="1"><no such body`, Header{"a", "b", 1}}, // the body is the endpoint's business
		{`<message from="a" to="x" to="b">`, Header{"a", "b", 0}},               // last duplicate wins, as in DecodeInto
	} {
		got, err := dec.DecodeHeader([]byte(tc.in))
		if err != nil || got != tc.want {
			t.Errorf("DecodeHeader(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		``,
		`<msg from="a" to="b">`,
		`<message from="a" to="b"`,
		`<message from="a" to="b" seq="x">`,
		`<message from="a" to="b" xmlns="urn:x">`,
		`<message from="a<" to="b">`,
		`<message from="" to="b" seq="1">`,
		`<message from="a" seq="1">`,
	} {
		if h, err := dec.DecodeHeader([]byte(in)); err == nil {
			t.Errorf("DecodeHeader(%q) accepted: %+v", in, h)
		}
		var m Message
		if err := DecodeInto([]byte(in), &m); err == nil {
			t.Errorf("DecodeInto(%q) accepted what DecodeHeader rejects", in)
		}
	}
	big := append([]byte(`<message from="a" to="b" seq="1">`), make([]byte, MaxFrame)...)
	if _, err := dec.DecodeHeader(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
}

// TestDecoderTokenCache: the cache changes which string instance a token
// decodes to, never its value, also when two tokens share a slot.
func TestDecoderTokenCache(t *testing.T) {
	var dec Decoder
	var m Message
	for round := 0; round < 3; round++ {
		for i := 0; i < 4*tokenSets; i++ {
			name := "cmd-" + strconv.Itoa(i)
			b, err := Encode(NewCommand("gate", AddrRTU, uint64(i), name, "key-"+name, "v"))
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.DecodeInto(b, &m); err != nil {
				t.Fatal(err)
			}
			if m.From != "gate" || m.To != AddrRTU || m.Command.Name != name || m.Command.Params[0].Key != "key-"+name {
				t.Fatalf("round %d: decoded %v %q %+v, want command %q", round, &m, m.Command.Name, m.Command.Params, name)
			}
		}
	}
}

// TestValidateZeroAlloc pins the bodyCount fix: Validate runs on every
// encode and decode and must not allocate.
func TestValidateZeroAlloc(t *testing.T) {
	m := NewPing(AddrFD, AddrSES, 7, 42)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate: %v allocs/op, want 0", allocs)
	}
}

// TestKindStringIndexed covers the array-indexed Kind.String across the
// whole range including out-of-range values.
func TestKindStringIndexed(t *testing.T) {
	want := map[Kind]string{
		KindInvalid: "invalid", KindPing: "ping", KindPong: "pong",
		KindCommand: "command", KindAck: "ack", KindTelemetry: "telemetry",
		KindEvent: "event", KindSync: "sync", KindSyncAck: "syncack",
		KindHealth: "health",
	}
	for k, w := range want {
		if got := k.String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, w)
		}
	}
	if got := Kind(-1).String(); got != "kind(-1)" {
		t.Errorf("Kind(-1).String() = %q", got)
	}
	if got := Kind(len(kindNames)).String(); !strings.Contains(got, "kind(") {
		t.Errorf("out-of-range kind = %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = KindPing.String()
	})
	if allocs != 0 {
		t.Errorf("Kind.String: %v allocs/op, want 0", allocs)
	}
}

// TestOptionalAttrsOmitted pins the omitempty behaviour both ways: empty
// optional attributes are absent from the wire form, and frames without
// them decode to empty strings.
func TestOptionalAttrsOmitted(t *testing.T) {
	ack, err := Encode(NewAck("a", "b", 1, 2, true, ""))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ack, []byte("error=")) {
		t.Fatalf("empty Ack.Error still on the wire: %s", ack)
	}
	ev, err := Encode(new(Pool).Event("a", "b", 1, "pass", ""))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ev, []byte("detail=")) {
		t.Fatalf("empty Event.Detail still on the wire: %s", ev)
	}
	for _, b := range [][]byte{ack, ev} {
		m, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%s): %v", b, err)
		}
		if m.Ack != nil && m.Ack.Error != "" {
			t.Fatalf("absent error attr decoded to %q", m.Ack.Error)
		}
		if m.Event != nil && m.Event.Detail != "" {
			t.Fatalf("absent detail attr decoded to %q", m.Event.Detail)
		}
	}
}

// TestEscapingRoundTrip pins XML-escaping of every metacharacter in the
// places operators actually put them: command params and error strings.
func TestEscapingRoundTrip(t *testing.T) {
	hostile := `&<>"'` + " and &amp; pre-escaped"
	for _, m := range []*Message{
		NewCommand("a", "b", 1, "go", hostile, hostile),
		NewAck("a", "b", 2, 1, false, hostile),
		new(Pool).Event("a", "b", 3, hostile, hostile),
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%s): %v", b, err)
		}
		sameMessage(t, got, withXMLName(m))
		// And the other decoder agrees.
		std, err := StdDecode(b)
		if err != nil {
			t.Fatalf("StdDecode(%s): %v", b, err)
		}
		sameMessage(t, std, withXMLName(m))
	}
}

// TestMaxFrameBoundary exercises the exact MaxFrame edge on both encode
// and decode: a frame of exactly MaxFrame bytes passes, one byte more is
// rejected.
func TestMaxFrameBoundary(t *testing.T) {
	// Find the fixed overhead of an event frame, then size the detail so
	// the encoding lands exactly on MaxFrame.
	probe, err := Encode(new(Pool).Event("a", "b", 1, "e", "x"))
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(probe) - 1
	exact := new(Pool).Event("a", "b", 1, "e", strings.Repeat("x", MaxFrame-overhead))
	b, err := Encode(exact)
	if err != nil {
		t.Fatalf("Encode at MaxFrame: %v", err)
	}
	if len(b) != MaxFrame {
		t.Fatalf("frame = %d bytes, want exactly MaxFrame=%d", len(b), MaxFrame)
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("Decode at MaxFrame: %v", err)
	}
	var m Message
	if err := DecodeInto(b, &m); err != nil {
		t.Fatalf("DecodeInto at MaxFrame: %v", err)
	}
	over := new(Pool).Event("a", "b", 1, "e", strings.Repeat("x", MaxFrame-overhead+1))
	if _, err := Encode(over); err != ErrFrameTooLarge {
		t.Fatalf("Encode over MaxFrame = %v, want ErrFrameTooLarge", err)
	}
	if _, err := Decode(make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("Decode over MaxFrame = %v, want ErrFrameTooLarge", err)
	}
	// AppendEncode must leave dst untouched on rejection.
	dst := []byte("prefix")
	dst2, err := AppendEncode(dst, over)
	if err != ErrFrameTooLarge || string(dst2) != "prefix" {
		t.Fatalf("AppendEncode over MaxFrame = %q, %v", dst2, err)
	}
}

// TestDecoderLeniency checks the hand-rolled parser handles the XML
// variants encoding/xml would: quoting styles, self-closing tags,
// whitespace, entity and character references.
func TestDecoderLeniency(t *testing.T) {
	cases := []struct {
		in   string
		want *Message
	}{
		{
			`<message from='a' to='b' seq='1'><ping nonce='2'/></message>`,
			NewPing("a", "b", 1, 2),
		},
		{
			" \n\t<message from=\"a\" to=\"b\" seq=\"1\">\n  <ping nonce=\"2\"></ping>\n</message>\r\n",
			NewPing("a", "b", 1, 2),
		},
		{
			`<message from = "a" to = "b" seq = "1"><ping nonce="2" /></message>`,
			NewPing("a", "b", 1, 2),
		},
		{
			`<message from="&#97;&#x62;&lt;&gt;&amp;&apos;&quot;" to="b" seq="1"><ping nonce="2"/></message>`,
			NewPing(`ab<>&'"`, "b", 1, 2),
		},
		{
			`<message from="a" to="b" seq="1" extra="ignored"><ack of="3" ok="1" bogus="x"/></message>`,
			NewAck("a", "b", 1, 3, true, ""),
		},
		{
			`<message from="a" to="b" seq="1"><command name="c"><param key="k" value="v"/><param key="k2" value="v2"></param></command></message>`,
			NewCommand("a", "b", 1, "c", "k", "v", "k2", "v2"),
		},
		{
			// Duplicate body element: last wins, as with encoding/xml.
			`<message from="a" to="b" seq="1"><ping nonce="1"/><ping nonce="9"/></message>`,
			NewPing("a", "b", 1, 9),
		},
		{
			// \r and \r\n in attribute values normalise to \n.
			"<message from=\"a\rb\rc\" to=\"b\" seq=\"1\"><ping nonce=\"2\"/></message>",
			NewPing("a\nb\nc", "b", 1, 2),
		},
	}
	for _, tc := range cases {
		got, err := Decode([]byte(tc.in))
		if err != nil {
			t.Errorf("Decode(%q): %v", tc.in, err)
			continue
		}
		sameMessage(t, got, withXMLName(tc.want))
		// Every lenient acceptance must agree with encoding/xml.
		std, err := StdDecode([]byte(tc.in))
		if err != nil {
			t.Errorf("StdDecode(%q): %v (new decoder accepted)", tc.in, err)
			continue
		}
		sameMessage(t, got, std)
	}
}

// TestDecoderStrictness enumerates inputs the hand-rolled parser must
// reject: malformed syntax, out-of-range characters, unknown elements,
// and the XML machinery the codec deliberately does not speak.
func TestDecoderStrictness(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<message",
		`<message from="a" to="b" seq="1">`,
		`<message from="a" to="b" seq="1"><ping nonce="2"/>`,
		`<message from="a" to="b" seq="1"><ping nonce="2"/></msg>`,
		`<message from="a" to="b" seq="1"><ping nonce="2"/></message>x`,
		`<message from="a" to="b" seq="1"><blob/></message>`,
		`<message from="a" to="b" seq="1"><ping nonce="x"/></message>`,
		`<message from="a" to="b" seq="-1"><ping nonce="2"/></message>`,
		`<message from="a" to="b" seq="99999999999999999999"><ping nonce="2"/></message>`,
		`<message from="a" to="b" seq="1"><ping nonce="2">text</ping></message>`,
		`<message from="a" to="b" seq="1"><!-- comment --><ping nonce="2"/></message>`,
		`<?xml version="1.0"?><message from="a" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message xmlns="ns" from="a" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="&bad;" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="&#0;" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="&#xD800;" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="&#x110000;" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="a` + "\x01" + `" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="a` + "\xff" + `" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="a<b" to="b" seq="1"><ping nonce="2"/></message>`,
		`<message from="unterminated`,
		`<message from="a" to="b" seq="1"><ack of="1" ok="yes"/></message>`,
	}
	for _, in := range cases {
		if m, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) accepted: %+v", in, m)
		}
		var reused Message
		if err := DecodeInto([]byte(in), &reused); err == nil {
			t.Errorf("DecodeInto(%q) accepted", in)
		}
	}
}

// BenchmarkAppendEncode / BenchmarkDecodeInto and their Std counterparts:
// the codec per operation, next to the encoding/xml reference.
func BenchmarkAppendEncode(b *testing.B) {
	m := NewPing(AddrFD, AddrSES, 7, 42)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStdEncode(b *testing.B) {
	m := NewPing(AddrFD, AddrSES, 7, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StdEncode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	buf, err := Encode(NewPing(AddrFD, AddrSES, 7, 42))
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(buf, &m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStdDecode(b *testing.B) {
	buf, err := Encode(NewPing(AddrFD, AddrSES, 7, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StdDecode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
