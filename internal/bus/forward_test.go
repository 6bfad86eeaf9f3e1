package bus

import (
	"bytes"
	"encoding/binary"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// rawFrame length-prefixes an arbitrary payload, valid XML or not.
func rawFrame(payload string) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

func clientNames(b *TCPBroker) string {
	names := b.ClientNames()
	sort.Strings(names)
	return strings.Join(names, ",")
}

// TestTCPDecodeDropIsolation pins who pays for a malformed frame now that
// the broker routes on the start tag. A routable frame with a broken body
// is dropped and counted by the destination's read loop, which keeps its
// connection and keeps reading (the old loop broke out, reconnected after a
// 100 ms+ backoff and tripped the failure detector on the way); a broken
// start tag costs the sender its connection at the broker and nobody else
// anything. Either way no handler sees a message that did not decode.
func TestTCPDecodeDropIsolation(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got collector
	recv, err := DialBus(b.Addr(), "ses", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	a := stalledClient(t, b.Addr(), "fd") // a raw connection: it can send anything
	defer a.Close()
	waitFor(t, "registrations", func() bool { return clientNames(b) == "fd,ses" })
	drops, reconnects := M.TCPDecodeDrops.Value(), M.TCPReconnects.Value()

	for _, body := range []string{
		`<ping nonce="not a number"></ping></message>`, // attribute that does not parse
		`<ping nonce="1"></ping>`,                      // envelope never closed
		`</message>`,                                   // well formed, but no body: fails Validate
	} {
		if _, err := a.Write(rawFrame(`<message from="fd" to="ses" seq="1">` + body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := (&FrameWriter{}).WriteFrame(a, xmlcmd.NewCommand("fd", "ses", 2, "point", "azRad", "1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the valid command", func() bool { return got.count() >= 1 })
	if m := got.last(); got.count() != 1 || m.Command == nil || m.Command.Name != "point" || m.Seq != 2 {
		t.Fatalf("handler saw %d messages, last %v; want only the command", got.count(), m)
	}
	if d := M.TCPDecodeDrops.Value() - drops; d != 3 {
		t.Fatalf("decode drops = %d, want 3", d)
	}
	if recv.Disconnected() || clientNames(b) != "fd,ses" || M.TCPReconnects.Value() != reconnects {
		t.Fatalf("a bad body cost a connection: clients %q, receiver disconnected=%v, reconnects +%d",
			clientNames(b), recv.Disconnected(), M.TCPReconnects.Value()-reconnects)
	}

	// A start tag that does not parse: the broker hangs up on the sender.
	if _, err := a.Write(rawFrame(`<message from="fd" to="ses" seq="x"><ping nonce="1"></ping></message>`)); err != nil {
		t.Fatal(err)
	}
	_ = a.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("sender of a broken start tag: read %v, want EOF (disconnected by the broker)", err)
	}
	waitFor(t, "sender deregistered", func() bool { return clientNames(b) == "ses" })
	if recv.Disconnected() || M.TCPReconnects.Value() != reconnects || got.count() != 1 || M.TCPDecodeDrops.Value()-drops != 3 {
		t.Fatalf("a bad start tag reached the destination: disconnected=%v, reconnects +%d, %d messages, drops +%d",
			recv.Disconnected(), M.TCPReconnects.Value()-reconnects, got.count(), M.TCPDecodeDrops.Value()-drops)
	}
}

// TestBrokerForwardsBytes: what a sender writes is what arrives on the
// destination's socket, byte for byte — the broker copies frames, it does
// not re-encode them — whether the frames came in one write or many, and
// also for frames our own encoder would have spelled differently.
func TestBrokerForwardsBytes(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dst := stalledClient(t, b.Addr(), "ses")
	defer dst.Close()
	src := stalledClient(t, b.Addr(), "fd")
	defer src.Close()
	waitFor(t, "registrations", func() bool { return clientNames(b) == "fd,ses" })

	var sent bytes.Buffer
	for _, m := range batchCorpus(40) {
		m.To = "ses"
		if err := (&FrameWriter{}).WriteFrame(&sent, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, odd := range []string{
		`<message  to='ses' from='fd' seq='1' hint="x"><ping nonce='2'/></message>` + "\n",
		`<message from="f&#100;" to="ses" seq="2"><ack of="1" ok="True"/></message>`,
		`<message from="fd" to="ses" seq="3"><not-our-grammar/>`, // forwarded as is; the destination drops it
	} {
		sent.Write(rawFrame(odd))
	}
	want := sent.Bytes()
	half := len(want) / 2
	if _, err := src.Write(want[:half]); err != nil { // many frames (and half of one) in one write
		t.Fatal(err)
	}
	for i := half; i < len(want); i += 7 { // and a trickle
		if _, err := src.Write(want[i:min(i+7, len(want))]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(want))
	_ = dst.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(dst, got); err != nil {
		t.Fatalf("destination read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("forwarded stream differs from what was sent:\n got %q\nwant %q", got, want)
	}
}

// TestTCPInboundEnvelopeHandBack: a consumer that hands an inbound message
// back gets the next frame in the same envelope; handing it back twice is
// caught.
func TestTCPInboundEnvelopeHandBack(t *testing.T) {
	b, err := listenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got collector
	recv, err := DialBus(b.Addr(), "ses", got.on)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := DialBus(b.Addr(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registrations", func() bool { return clientNames(b) == "fd,ses" })

	send.Send(xmlcmd.NewCommand("fd", "ses", 1, "point", "azRad", "1"))
	waitFor(t, "first delivery", func() bool { return got.count() == 1 })
	first := got.last()
	if first.Owner == nil {
		t.Fatal("inbound message has no owner to hand it back to")
	}
	first.Owner.RecycleMessage(first)
	send.Send(xmlcmd.NewPing("fd", "ses", 2, 9))
	waitFor(t, "second delivery", func() bool { return got.count() == 2 })
	second := got.last()
	if second != first || second.Ping == nil || second.Ping.Nonce != 9 || second.Command != nil {
		t.Fatalf("second frame: reused=%v, %v", second == first, second)
	}
	second.Owner.RecycleMessage(second)
	defer func() {
		if recover() == nil {
			t.Fatal("second hand-back of an inbound envelope did not panic")
		}
	}()
	second.Owner.RecycleMessage(second)
}
