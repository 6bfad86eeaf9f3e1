package xmlcmd

import (
	"math"
	"testing"
	"time"
)

// TestPoolMintsLikeTheConstructors: a pooled message encodes to the same
// bytes as an unpooled one — the allocating constructor's where the kind
// has one, a literal otherwise — fresh, and again after the envelope has
// been through a recycle with different contents.
func TestPoolMintsLikeTheConstructors(t *testing.T) {
	var p Pool
	at := time.UnixMilli(1_024_000_000_123)
	ping := NewPing(AddrFD, AddrSES, 7, 99)
	h := Health{Incarnation: 2, UptimeMs: 5000, QueueDepth: 1, AgeScore: 0.25, Warnings: 3}
	mint := []func() (pooled, plain *Message){
		func() (*Message, *Message) { return p.Ping(AddrFD, AddrSES, 7, 99), ping },
		func() (*Message, *Message) {
			return p.Pong(AddrSES, ping, 3), &Message{From: AddrSES, To: AddrFD, Seq: 7, Pong: &Pong{Nonce: 99, Incarnation: 3}}
		},
		func() (*Message, *Message) {
			return p.Command(AddrSES, AddrSTR, 8, "point", Param{Key: "azRad", Value: "1.5"}, Param{Key: "elRad", Value: "0.25"}),
				NewCommand(AddrSES, AddrSTR, 8, "point", "azRad", "1.5", "elRad", "0.25")
		},
		func() (*Message, *Message) {
			return p.Command(AddrSES, AddrRTU, 8, "tune", num("freqHz", 437.1e6), Param{Key: "mode", Value: "fm"}),
				NewCommand(AddrSES, AddrRTU, 8, "tune", "freqHz", "4.371e+08", "mode", "fm")
		},
		func() (*Message, *Message) {
			return p.Command(AddrFedr, AddrPbcom, 9, "noop"), NewCommand(AddrFedr, AddrPbcom, 9, "noop")
		},
		func() (*Message, *Message) {
			return p.Ack(AddrSTR, AddrSES, 10, 8, false, "busy"), NewAck(AddrSTR, AddrSES, 10, 8, false, "busy")
		},
		func() (*Message, *Message) {
			return p.Telemetry(AddrSTR, "ops", 11, "on_target", 1, at), NewTelemetry(AddrSTR, "ops", 11, "on_target", 1, at)
		},
		func() (*Message, *Message) {
			return p.Event(AddrFD, AddrREC, 12, "failure", AddrRTU), &Message{From: AddrFD, To: AddrREC, Seq: 12, Event: &Event{Name: "failure", Detail: AddrRTU}}
		},
		func() (*Message, *Message) {
			return p.Sync(AddrSES, AddrSTR, 13, 42), &Message{From: AddrSES, To: AddrSTR, Seq: 13, Sync: &Sync{Epoch: 42}}
		},
		func() (*Message, *Message) {
			return p.SyncAck(AddrSTR, AddrSES, 14, 42), &Message{From: AddrSTR, To: AddrSES, Seq: 14, SyncAck: &SyncAck{Epoch: 42}}
		},
		func() (*Message, *Message) {
			return p.Health(AddrRTU, AddrFD, 15, h), &Message{From: AddrRTU, To: AddrFD, Seq: 15, Health: &h}
		},
	}
	defer PoisonRecycledForTest()()
	for round := 0; round < 3; round++ {
		for i, f := range mint {
			pooled, plain := f()
			got, err := Encode(pooled)
			if err != nil {
				t.Fatalf("mint %d: %v", i, err)
			}
			want, err := Encode(plain)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("round %d mint %d:\n got %s\nwant %s", round, i, got, want)
			}
			if pooled.Owner != &p {
				t.Fatalf("mint %d: Owner not the pool", i)
			}
			p.RecycleMessage(pooled) // poisoned; the next round must overwrite every field
		}
	}
}

// TestPoolReusesEnvelopes: steady-state minting allocates nothing.
func TestPoolReusesEnvelopes(t *testing.T) {
	var p Pool
	ping := NewPing(AddrFD, AddrSES, 1, 1)
	at := time.UnixMilli(1)
	az := num("azRad", 1)
	cycle := func() {
		a := p.Ping(AddrFD, AddrSES, 1, 1)
		b := p.Pong(AddrSES, ping, 1)
		c := p.Command(AddrSES, AddrSTR, 1, "point", az, Param{Key: "elRad", Value: "2"})
		d := p.Ack(AddrSTR, AddrSES, 1, 1, true, "")
		e := p.Telemetry(AddrSTR, "ops", 1, "k", 1, at)
		f := p.Event(AddrFD, AddrREC, 1, "failure", AddrRTU)
		g := p.Health(AddrRTU, AddrFD, 1, Health{})
		for _, m := range []*Message{a, b, c, d, e, f, g} {
			p.RecycleMessage(m)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm pool allocates %.1f per cycle, want 0", allocs)
	}
}

// TestPoolDoubleRecyclePanics: the second hand-back of one message would
// put it in the free list twice and alias two later sends.
func TestPoolDoubleRecyclePanics(t *testing.T) {
	var p Pool
	m := p.Ping("a", "b", 1, 1)
	p.RecycleMessage(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second recycle of the same message did not panic")
		}
	}()
	p.RecycleMessage(m)
}

// TestPoolDropsForeignMessages: a recycler must tolerate messages it did
// not mint.
func TestPoolDropsForeignMessages(t *testing.T) {
	var p, q Pool
	p.RecycleMessage(NewPing("a", "b", 1, 1)) // unowned
	theirs := q.Ping("a", "b", 1, 1)
	p.RecycleMessage(theirs)
	if got := p.Ping("a", "b", 2, 2); got == theirs || got.Owner != &p {
		t.Fatal("pool handed out a message it did not mint")
	}
}

// TestPoisonOverwritesEverything: in poison mode a stale holder reads
// sentinels from every field of a recycled message — a retained parameter
// reads the poison text and the poison number, whichever form it had.
func TestPoisonOverwritesEverything(t *testing.T) {
	defer PoisonRecycledForTest()()
	var p Pool
	cmd := p.Command("ses", "str", 1, "point", num("azRad", 1), Param{Key: "elRad", Value: "2"})
	params := cmd.Command.Params // a stale alias of the backing array
	tel := p.Telemetry("str", "ops", 2, "on_target", 1, time.UnixMilli(5))
	p.RecycleMessage(cmd)
	p.RecycleMessage(tel)
	if cmd.From != PoisonString || cmd.To != PoisonString || cmd.Seq != poisonUint || cmd.Command.Name != PoisonString {
		t.Fatalf("command envelope not poisoned: %+v %+v", cmd, cmd.Command)
	}
	for _, kv := range params {
		if kv.Key != PoisonString || kv.Value != PoisonString || !kv.numeric || !math.IsNaN(kv.num) {
			t.Fatalf("param not poisoned: %+v", kv)
		}
	}
	stale := Command{Name: "point", Params: params}
	stale.Params[0].Key = "azRad" // even a holder that remembers the key gets no number
	if f, err := stale.FloatParam("azRad"); err == nil {
		t.Fatalf("FloatParam on a recycled numeric param returned %v", f)
	}
	if tel.Telemetry.Key != PoisonString || !math.IsNaN(tel.Telemetry.Value) {
		t.Fatalf("telemetry not poisoned: %+v", tel.Telemetry)
	}
}

// TestFreeListRecyclesEnvelopes: a handed-back envelope is what the next
// frame decodes into, whatever its kind, so a releasing consumer's inbound
// traffic allocates only its parameter values; foreign messages are
// dropped and a full list lets envelopes go.
func TestFreeListRecyclesEnvelopes(t *testing.T) {
	var l, other FreeList
	var dec Decoder
	cmd, _ := Encode(NewCommand("gate", AddrRTU, 1, "tune", "freqHz", "437.5"))
	ack, _ := Encode(NewAck(AddrRTU, "gate", 2, 1, true, ""))
	first, err := l.Decode(&dec, cmd)
	if err != nil || first.Owner != &l {
		t.Fatalf("Decode: %v, owner %v", err, first.Owner)
	}
	other.RecycleMessage(first) // not theirs
	l.RecycleMessage(NewPing("a", "b", 1, 1))
	l.RecycleMessage(first)
	second, err := l.Decode(&dec, ack)
	if err != nil || second != first || second.Ack == nil || second.Command != nil || second.Ack.OfSeq != 1 {
		t.Fatalf("second decode: %v, reused=%v, %v", err, second == first, second)
	}
	l.RecycleMessage(second)
	if allocs := testing.AllocsPerRun(100, func() {
		m, err := l.Decode(&dec, ack)
		if err != nil {
			t.Fatal(err)
		}
		l.RecycleMessage(m)
	}); allocs != 0 {
		t.Fatalf("warm free list allocates %.1f per ack, want 0", allocs)
	}

	held := make([]*Message, freeListCap+10)
	for i := range held {
		if held[i], err = l.Decode(&dec, ack); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range held {
		l.RecycleMessage(m)
	}
	if len(l.free) != freeListCap {
		t.Fatalf("free list holds %d envelopes, cap %d", len(l.free), freeListCap)
	}
}

// TestFreeListDoubleHandBackPanics: a second hand-back of one inbound
// envelope would let two frames decode into it at once.
func TestFreeListDoubleHandBackPanics(t *testing.T) {
	var l FreeList
	b, _ := Encode(NewPing("a", "b", 1, 1))
	m, err := l.Decode(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	l.RecycleMessage(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second hand-back of the same envelope did not panic")
		}
	}()
	l.RecycleMessage(m)
}

// TestFreeListPoisons: in poison mode a consumer that kept an inbound
// envelope past its hand-back reads sentinels.
func TestFreeListPoisons(t *testing.T) {
	defer PoisonRecycledForTest()()
	var l FreeList
	b, _ := Encode(NewCommand("gate", AddrRTU, 1, "tune", "freqHz", "437.5"))
	m, err := l.Decode(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	l.RecycleMessage(m)
	if m.From != PoisonString || m.Command.Name != PoisonString || m.Command.Params[:1][0].Value != PoisonString {
		t.Fatalf("inbound envelope not poisoned: %+v %+v", m, m.Command)
	}
}

// mintKinds mints one message of every body kind from p, each beside a
// check that a holder of the message reads the poison once it is recycled.
func mintKinds(p *Pool) []struct {
	kind     Kind
	mint     func() *Message
	poisoned func(*Message) bool
} {
	ping := NewPing(AddrFD, AddrSES, 1, 1)
	at := time.UnixMilli(1)
	return []struct {
		kind     Kind
		mint     func() *Message
		poisoned func(*Message) bool
	}{
		{KindPing, func() *Message { return p.Ping(AddrFD, AddrSES, 1, 1) },
			func(m *Message) bool { return m.Ping.Nonce == poisonUint }},
		{KindPong, func() *Message { return p.Pong(AddrSES, ping, 1) },
			func(m *Message) bool { return m.Pong.Incarnation == -1 }},
		{KindCommand, func() *Message {
			return p.Command(AddrSES, AddrSTR, 1, "point", Param{Key: "azRad", Value: "1"}, Param{Key: "elRad", Value: "2"})
		}, func(m *Message) bool {
			return m.Command.Name == PoisonString && m.Command.Params[0].Key == PoisonString && m.Command.Params[1].Value == PoisonString
		}},
		{KindAck, func() *Message { return p.Ack(AddrSTR, AddrSES, 1, 1, true, "") },
			func(m *Message) bool { return m.Ack.Error == PoisonString }},
		{KindTelemetry, func() *Message { return p.Telemetry(AddrSTR, "ops", 1, "k", 1, at) },
			func(m *Message) bool { return m.Telemetry.Key == PoisonString }},
		{KindEvent, func() *Message { return p.Event(AddrFD, AddrREC, 1, "failure", AddrRTU) },
			func(m *Message) bool { return m.Event.Detail == PoisonString }},
		{KindSync, func() *Message { return p.Sync(AddrSES, AddrSTR, 1, 7) },
			func(m *Message) bool { return m.Sync.Epoch == math.MinInt64 }},
		{KindSyncAck, func() *Message { return p.SyncAck(AddrSTR, AddrSES, 1, 7) },
			func(m *Message) bool { return m.SyncAck.Epoch == math.MinInt64 }},
		{KindHealth, func() *Message { return p.Health(AddrRTU, AddrFD, 1, Health{}) },
			func(m *Message) bool { return m.Health.Incarnation == -1 }},
	}
}

// TestPoolMintAllocs: a fresh mint of every body kind — a command with
// its two parameters included — is exactly one allocation, a recycled
// one none; and in poison mode a holder that kept the envelope reads the
// poison through its body pointer, which points into that one piece.
func TestPoolMintAllocs(t *testing.T) {
	var p Pool
	kinds := mintKinds(&p)
	if len(kinds) != int(KindHealth) {
		t.Fatalf("%d kinds minted, want every one of %d", len(kinds), KindHealth)
	}
	for _, k := range kinds {
		if m := k.mint(); m.Kind() != k.kind || m.Owner != &p {
			t.Fatalf("%v: minted kind %v, owner %v", k.kind, m.Kind(), m.Owner)
		}
		if n := testing.AllocsPerRun(50, func() { k.mint() }); n != 1 {
			t.Errorf("%v: fresh mint is %.1f allocations, want 1", k.kind, n)
		}
		if n := testing.AllocsPerRun(50, func() { p.RecycleMessage(k.mint()) }); n != 0 {
			t.Errorf("%v: recycled mint is %.1f allocations, want 0", k.kind, n)
		}
	}

	defer PoisonRecycledForTest()()
	var q Pool
	for _, k := range mintKinds(&q) {
		m := k.mint() // fresh: q's free lists are empty
		q.RecycleMessage(m)
		if m.From != PoisonString || !k.poisoned(m) {
			t.Errorf("%v: a kept envelope does not read the poison: %v", k.kind, m)
		}
	}
}
