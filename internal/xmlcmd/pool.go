package xmlcmd

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Pool recycles message envelopes, body included, across the simulated
// fabric. Every minted message carries the pool as its Owner; bus.Sim hands
// it back through RecycleMessage once the last in-flight copy has been
// delivered or dropped, so a station in steady state sends without
// allocating. An envelope keeps the body kind it was minted with for its
// whole life, and the free lists are indexed by that kind.
//
// A pool belongs to one dispatch context (one proc.Manager): minting and
// recycling are unsynchronised. Ownership rule for everything it mints: the
// message is valid for exactly one delivery. A receiver may read it only
// until its Receive returns and must copy out what it keeps — strings are
// immutable and may be kept, the *Message and its body pointer may not.
// The live transport hands a mint back as soon as the TCP client's Send
// returns (the frame is encoded into the send queue by then); a cross-shard
// hand-off strips the Owner and leaves the envelope to the garbage
// collector.
type Pool struct {
	free [KindHealth + 1][]*Message
	// first is where each free list starts, so a station — whose lists
	// hold an envelope or two per kind — never grows one on the heap. (A
	// pool is its messages' Owner by address, so it is never copied.)
	first [KindHealth + 1][4]*Message
}

var _ Recycler = (*Pool)(nil)

// poisonRecycled is the test-only poison switch, see PoisonRecycledForTest.
var poisonRecycled atomic.Bool

// PoisonRecycledForTest makes every pool overwrite each message it takes
// back with sentinel values, so any holder that kept the pointer past its
// delivery reads garbage and the seeded goldens diverge. It returns the
// function that restores the previous setting. Tests only.
func PoisonRecycledForTest() (restore func()) {
	prev := poisonRecycled.Swap(true)
	return func() { poisonRecycled.Store(prev) }
}

// PoisonString is the sentinel the poison mode writes into every string
// field; no bus address, key or command name can equal it.
const PoisonString = "\x00recycled"

const poisonUint = 0xDEADDEADDEADDEAD

// RecycleMessage implements Recycler. A message some other owner minted is
// dropped; handing the same message back twice is a fabric bug (the second
// mint would alias a live message) and panics.
func (p *Pool) RecycleMessage(m *Message) {
	if m.Owner != p {
		return
	}
	if m.pooled {
		panic("xmlcmd: message recycled twice: " + m.String())
	}
	m.pooled = true
	if poisonRecycled.Load() {
		m.poison()
	}
	k := m.Kind()
	if p.free[k] == nil {
		p.free[k] = p.first[k][:0]
	}
	p.free[k] = append(p.free[k], m)
}

// envelope is a fresh mint: the message and its body in one allocation,
// so a mint costs one allocation and a recycled one none. The body stays
// where it is for the envelope's whole life (poison leaves the pointer), so
// the layout is invisible to a holder of the *Message.
type envelope[B any] struct {
	m    Message
	body B
}

// commandBody is a command with room for two parameters inline — every
// command the station sends has at most two.
type commandBody struct {
	Command
	params [2]Param
}

// get pops a free envelope of the kind, or reports nil.
func (p *Pool) get(k Kind) *Message {
	l := p.free[k]
	n := len(l)
	if n == 0 {
		return nil
	}
	m := l[n-1]
	p.free[k] = l[:n-1]
	m.pooled = false
	return m
}

// Ping mints a pooled NewPing.
func (p *Pool) Ping(from, to string, seq, nonce uint64) *Message {
	m := p.get(KindPing)
	if m == nil {
		e := &envelope[Ping]{m: Message{Owner: p}}
		e.m.Ping = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	m.Ping.Nonce = nonce
	return m
}

// Pong mints the reply to ping. It copies what it needs out of ping, which
// may itself be a pooled message about to be recycled.
func (p *Pool) Pong(from string, ping *Message, incarnation int) *Message {
	m := p.get(KindPong)
	if m == nil {
		e := &envelope[Pong]{m: Message{Owner: p}}
		e.m.Pong = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, ping.From, ping.Seq
	*m.Pong = Pong{Nonce: ping.Ping.Nonce, Incarnation: incarnation}
	return m
}

// Command mints a pooled command carrying params, which it copies: text
// (Param{Key, Value}), numbers (Num) or parameters taken whole from a
// received command (Command.Lookup).
func (p *Pool) Command(from, to string, seq uint64, name string, params ...Param) *Message {
	m := p.get(KindCommand)
	if m == nil {
		e := &envelope[commandBody]{m: Message{Owner: p}}
		e.body.Params = e.body.params[:0]
		e.m.Command = &e.body.Command
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	c := m.Command
	c.Name = name
	c.Params = append(c.Params[:0], params...)
	return m
}

// Ack mints a pooled NewAck.
func (p *Pool) Ack(from, to string, seq, ofSeq uint64, ok bool, errStr string) *Message {
	m := p.get(KindAck)
	if m == nil {
		e := &envelope[Ack]{m: Message{Owner: p}}
		e.m.Ack = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	*m.Ack = Ack{OfSeq: ofSeq, OK: ok, Error: errStr}
	return m
}

// Telemetry mints a pooled NewTelemetry.
func (p *Pool) Telemetry(from, to string, seq uint64, key string, value float64, at time.Time) *Message {
	m := p.get(KindTelemetry)
	if m == nil {
		e := &envelope[Telemetry]{m: Message{Owner: p}}
		e.m.Telemetry = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	*m.Telemetry = Telemetry{Key: key, Value: value, AtUnixMilli: at.UnixMilli()}
	return m
}

// Event mints an event notification.
func (p *Pool) Event(from, to string, seq uint64, name, detail string) *Message {
	m := p.get(KindEvent)
	if m == nil {
		e := &envelope[Event]{m: Message{Owner: p}}
		e.m.Event = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	*m.Event = Event{Name: name, Detail: detail}
	return m
}

// Sync mints a startup resynchronisation proposal.
func (p *Pool) Sync(from, to string, seq uint64, epoch int64) *Message {
	m := p.get(KindSync)
	if m == nil {
		e := &envelope[Sync]{m: Message{Owner: p}}
		e.m.Sync = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	m.Sync.Epoch = epoch
	return m
}

// SyncAck mints the acceptance of a resynchronisation proposal.
func (p *Pool) SyncAck(from, to string, seq uint64, epoch int64) *Message {
	m := p.get(KindSyncAck)
	if m == nil {
		e := &envelope[SyncAck]{m: Message{Owner: p}}
		e.m.SyncAck = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	m.SyncAck.Epoch = epoch
	return m
}

// Health mints a pooled health-summary beacon.
func (p *Pool) Health(from, to string, seq uint64, h Health) *Message {
	m := p.get(KindHealth)
	if m == nil {
		e := &envelope[Health]{m: Message{Owner: p}}
		e.m.Health = &e.body
		m = &e.m
	}
	m.From, m.To, m.Seq = from, to, seq
	*m.Health = h
	return m
}

// FreeList is the live path's inbound counterpart of Pool: a bounded free
// list of decode envelopes — scratch bodies and parameter capacity included —
// shared by the connection read loop that decodes into them and whoever
// finishes the delivery on another goroutine, hence synchronised. Decode
// stamps the list as the envelope's Owner; the consumer hands it back
// through RecycleMessage when the delivery is over, under Pool's lifetime
// rule (nobody keeps the *Message or its body past that). A consumer that
// never hands back simply owns its messages and leaves them to the garbage
// collector, so the list costs nothing where it is not used. The zero value
// is ready.
type FreeList struct {
	mu   sync.Mutex
	free []*Message
}

var _ Recycler = (*FreeList)(nil)

// freeListCap bounds what a burst can park on one connection: 256
// envelopes cover a full dispatcher batch several times over and stay
// around 100 KiB.
const freeListCap = 256

// Decode decodes one frame payload into a recycled envelope (a fresh one,
// one allocation with its scratch bodies, when the list is empty) and
// stamps the list as its Owner. A frame that does not decode takes its
// envelope with it.
func (l *FreeList) Decode(dc *Decoder, b []byte) (*Message, error) {
	var m *Message
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		m = l.free[n-1]
		l.free = l.free[:n-1]
		m.pooled = false
	}
	l.mu.Unlock()
	if m == nil {
		m = newDecodeTarget()
	}
	if err := dc.DecodeInto(b, m); err != nil {
		return nil, err
	}
	m.Owner = l
	return m, nil
}

// RecycleMessage implements Recycler: foreign messages are dropped, a
// second hand-back of the same envelope panics like Pool's, and a full
// list leaves the envelope to the garbage collector.
func (l *FreeList) RecycleMessage(m *Message) {
	if m.Owner != l {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if m.pooled {
		panic("xmlcmd: message recycled twice: " + m.String())
	}
	m.pooled = true
	if poisonRecycled.Load() {
		m.poison()
	}
	if len(l.free) < freeListCap {
		l.free = append(l.free, m)
	}
}

// poison overwrites every field a stale holder could read. The body
// pointer itself stays: it is what keeps the envelope's kind.
func (m *Message) poison() {
	m.From, m.To, m.Seq = PoisonString, PoisonString, poisonUint
	switch {
	case m.Ping != nil:
		m.Ping.Nonce = poisonUint
	case m.Pong != nil:
		*m.Pong = Pong{Nonce: poisonUint, Incarnation: -1}
	case m.Command != nil:
		m.Command.Name = PoisonString
		ps := m.Command.Params[:cap(m.Command.Params)]
		for i := range ps {
			ps[i] = Param{Key: PoisonString, Value: PoisonString, num: math.NaN(), numeric: true}
		}
	case m.Ack != nil:
		*m.Ack = Ack{OfSeq: poisonUint, Error: PoisonString}
	case m.Telemetry != nil:
		*m.Telemetry = Telemetry{Key: PoisonString, Value: math.NaN(), AtUnixMilli: math.MinInt64}
	case m.Event != nil:
		*m.Event = Event{Name: PoisonString, Detail: PoisonString}
	case m.Sync != nil:
		m.Sync.Epoch = math.MinInt64
	case m.SyncAck != nil:
		m.SyncAck.Epoch = math.MinInt64
	case m.Health != nil:
		*m.Health = Health{Incarnation: -1, UptimeMs: math.MinInt64, AgeScore: math.NaN(), Suspect: true}
	}
}
