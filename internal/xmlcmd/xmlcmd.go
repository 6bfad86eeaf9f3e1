// Package xmlcmd implements Mercury's high-level XML command language.
//
// All inter-component traffic in the ground station — liveness pings,
// radio-tuning commands, antenna-pointing commands, satellite state
// telemetry, startup-resynchronisation handshakes and component health
// beacons — is carried as XML messages of this vocabulary over the software
// message bus (see internal/bus). A successful application-level reply
// indicates liveness with higher confidence than a network-level ping,
// which is exactly the property the paper's failure detector relies on.
package xmlcmd

import (
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Well-known component addresses on the bus.
const (
	AddrMBus    = "mbus"
	AddrFedrcom = "fedrcom"
	AddrFedr    = "fedr"
	AddrPbcom   = "pbcom"
	AddrSES     = "ses"
	AddrSTR     = "str"
	AddrRTU     = "rtu"
	AddrFD      = "fd"
	AddrREC     = "rec"
)

// Dedicated reports whether a message from one address to another rides
// the FD↔REC dedicated link, which does not transit mbus (the paper's
// separate TCP connection). Every runtime routes by this one rule.
func Dedicated(from, to string) bool {
	return (from == AddrFD || from == AddrREC) && (to == AddrFD || to == AddrREC)
}

// Kind identifies the body carried by a Message.
type Kind int

// Message kinds. The zero value is invalid so that a forgotten body is
// caught by Validate.
const (
	KindInvalid Kind = iota
	KindPing
	KindPong
	KindCommand
	KindAck
	KindTelemetry
	KindEvent
	KindSync
	KindSyncAck
	KindHealth
)

// kindNames is indexed by Kind: String is called on every trace line, so
// it must not pay for a map lookup.
var kindNames = [...]string{
	KindInvalid:   "invalid",
	KindPing:      "ping",
	KindPong:      "pong",
	KindCommand:   "command",
	KindAck:       "ack",
	KindTelemetry: "telemetry",
	KindEvent:     "event",
	KindSync:      "sync",
	KindSyncAck:   "syncack",
	KindHealth:    "health",
}

// String returns the element name of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Validation errors.
var (
	ErrNoBody        = errors.New("xmlcmd: message has no body")
	ErrMultipleBody  = errors.New("xmlcmd: message has more than one body")
	ErrMissingFrom   = errors.New("xmlcmd: missing from attribute")
	ErrMissingTo     = errors.New("xmlcmd: missing to attribute")
	ErrEmptyCommand  = errors.New("xmlcmd: command with empty name")
	ErrEmptyEvent    = errors.New("xmlcmd: event with empty name")
	ErrBadTelemetry  = errors.New("xmlcmd: telemetry with empty key")
	ErrFrameTooLarge = errors.New("xmlcmd: frame exceeds maximum size")
)

// Message is the envelope of the XML command language. Exactly one body
// pointer must be non-nil.
type Message struct {
	XMLName xml.Name `xml:"message"`

	// From and To are bus addresses.
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
	// Seq is a sender-scoped sequence number used to pair requests with
	// replies (ping/pong, command/ack).
	Seq uint64 `xml:"seq,attr"`

	Ping      *Ping      `xml:"ping"`
	Pong      *Pong      `xml:"pong"`
	Command   *Command   `xml:"command"`
	Ack       *Ack       `xml:"ack"`
	Telemetry *Telemetry `xml:"telemetry"`
	Event     *Event     `xml:"event"`
	Sync      *Sync      `xml:"sync"`
	SyncAck   *SyncAck   `xml:"syncack"`
	Health    *Health    `xml:"health"`

	// Owner, when non-nil, is handed the message back by the simulated
	// fabric once its last in-flight copy has been delivered or dropped
	// (see bus.Sim). It lets senders pool envelopes and bodies across the
	// fabric boundary instead of allocating per send. Never encoded; the
	// TCP transport ignores it (frames are copied onto the wire, so the
	// sender may reuse the message as soon as Send returns there).
	Owner Recycler `xml:"-"`

	// pooled marks an envelope sitting in its Pool's free list, so a second
	// recycle of the same message is caught instead of aliasing two sends.
	pooled bool

	// scratch holds reusable body structs for DecodeInto (invisible to
	// encoding/xml). See codec.go.
	scratch *decodeScratch
}

// Recycler receives messages back from a transport at the end of their
// delivery lifecycle. Implementations are called on the transport's
// dispatch context with the message no longer referenced by the fabric;
// they may clear and reuse it. A recycler must tolerate messages it did
// not mint (drop them) — under chaos duplication the fabric guarantees at
// most one recycle per message, but delivery and recycle order is
// unspecified.
type Recycler interface {
	RecycleMessage(m *Message)
}

// Ping is an application-level liveness probe ("are you alive?").
type Ping struct {
	// Nonce is echoed back in the Pong so stale replies are discarded.
	Nonce uint64 `xml:"nonce,attr"`
}

// Pong is the reply to a Ping. A component only answers once functionally
// ready, so a Pong certifies end-to-end application liveness.
type Pong struct {
	Nonce uint64 `xml:"nonce,attr"`
	// Incarnation is the responder's restart generation, letting the
	// failure detector distinguish a recovered instance from a stale one.
	Incarnation int `xml:"incarnation,attr"`
}

// Command is a high-level ground-station command (tune, point, track, …).
type Command struct {
	Name   string  `xml:"name,attr"`
	Params []Param `xml:"param"`
}

// Param is a named command argument: text, or a number. Only the wire is
// text, so a producer that holds a float64 hands it over with Num, a reader
// gets it back from Command.FloatParam without either side touching strconv,
// and a forwarder copies the Param whole (Command.Lookup). The codec renders
// a number when it encodes a frame; the decoder keeps a value written in
// exactly that form as the number, and any other as the text it arrived
// as, parsed when asked.
type Param struct {
	Key string `xml:"key,attr"`
	// Value is the text form; empty on a numeric parameter, whose text is
	// Text().
	Value string `xml:"value,attr"`

	num     float64
	numeric bool
}

// Num builds a numeric parameter. A number that is not finite has no place
// in a command and is rejected here, as FloatParam rejects it on receipt.
func Num(key string, f float64) (Param, error) {
	if !finite(f) {
		return Param{}, fmt.Errorf("xmlcmd: param %q: %v is not finite", key, f)
	}
	return Param{Key: key, num: f, numeric: true}, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Text returns the parameter's wire text: Value, or a number in the
// shortest form that parses back to the same bits.
func (p Param) Text() string {
	if p.numeric {
		return strconv.FormatFloat(p.num, 'g', -1, 64)
	}
	return p.Value
}

// MarshalXML renders a numeric parameter as its text, so encoding/xml (the
// reference the tests hold the codec to) produces the bytes AppendEncode
// does.
func (p Param) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	return e.EncodeElement(struct {
		Key   string `xml:"key,attr"`
		Value string `xml:"value,attr"`
	}{p.Key, p.Text()}, start)
}

// Ack acknowledges a Command, reporting success or an error string.
type Ack struct {
	OfSeq uint64 `xml:"of,attr"`
	OK    bool   `xml:"ok,attr"`
	Error string `xml:"error,attr,omitempty"`
}

// Telemetry is a stream sample (antenna angles, radio frequency, satellite
// range, science data counters, …).
type Telemetry struct {
	Key   string  `xml:"key,attr"`
	Value float64 `xml:"value,attr"`
	// AtUnixMilli stamps the sample; XML attributes carry the unit in the
	// name because encoding/xml has no native time.Duration support.
	AtUnixMilli int64 `xml:"atUnixMilli,attr"`
}

// At returns the sample instant.
func (t *Telemetry) At() time.Time { return time.UnixMilli(t.AtUnixMilli) }

// Event is an asynchronous notification (pass start, link lost, …).
type Event struct {
	Name   string  `xml:"name,attr"`
	Detail string  `xml:"detail,attr,omitempty"`
	Params []Param `xml:"param"`
}

// Sync is the startup-resynchronisation handshake used by the ses/str pair.
// A freshly started component proposes a new session epoch; a peer that is
// itself (re)starting adopts it, while a running peer with a different
// epoch cannot resynchronise and fails — the correlated-failure artifact
// the paper's group consolidation addresses.
type Sync struct {
	Epoch int64 `xml:"epoch,attr"`
}

// SyncAck accepts a proposed session epoch.
type SyncAck struct {
	Epoch int64 `xml:"epoch,attr"`
}

// Health is a component health-summary beacon (paper §7): a digest of
// internal metrics that has not yet caused a failure.
type Health struct {
	Incarnation int     `xml:"incarnation,attr"`
	UptimeMs    int64   `xml:"uptimeMs,attr"`
	QueueDepth  int     `xml:"queueDepth,attr"`
	AgeScore    float64 `xml:"ageScore,attr"`
	Warnings    int     `xml:"warnings,attr"`
	Suspect     bool    `xml:"suspect,attr"`
}

// Kind reports which body the message carries, or KindInvalid if none.
func (m *Message) Kind() Kind {
	switch {
	case m.Ping != nil:
		return KindPing
	case m.Pong != nil:
		return KindPong
	case m.Command != nil:
		return KindCommand
	case m.Ack != nil:
		return KindAck
	case m.Telemetry != nil:
		return KindTelemetry
	case m.Event != nil:
		return KindEvent
	case m.Sync != nil:
		return KindSync
	case m.SyncAck != nil:
		return KindSyncAck
	case m.Health != nil:
		return KindHealth
	}
	return KindInvalid
}

// bodyCount returns how many bodies are set. It runs inside Validate on
// every encode and decode, so it is straight-line code: the obvious slice
// literal costs an allocation per call.
func (m *Message) bodyCount() int {
	n := 0
	if m.Ping != nil {
		n++
	}
	if m.Pong != nil {
		n++
	}
	if m.Command != nil {
		n++
	}
	if m.Ack != nil {
		n++
	}
	if m.Telemetry != nil {
		n++
	}
	if m.Event != nil {
		n++
	}
	if m.Sync != nil {
		n++
	}
	if m.SyncAck != nil {
		n++
	}
	if m.Health != nil {
		n++
	}
	return n
}

// Validate checks that the envelope is well formed: addressed, and carrying
// exactly one body with its required fields.
func (m *Message) Validate() error {
	if m.From == "" {
		return ErrMissingFrom
	}
	if m.To == "" {
		return ErrMissingTo
	}
	switch n := m.bodyCount(); {
	case n == 0:
		return ErrNoBody
	case n > 1:
		return ErrMultipleBody
	}
	switch m.Kind() {
	case KindCommand:
		if m.Command.Name == "" {
			return ErrEmptyCommand
		}
	case KindEvent:
		if m.Event.Name == "" {
			return ErrEmptyEvent
		}
	case KindTelemetry:
		if m.Telemetry.Key == "" {
			return ErrBadTelemetry
		}
	}
	return nil
}

// String renders a compact one-line description for traces and logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s->%s %s#%d", m.From, m.To, m.Kind(), m.Seq)
}

// MaxFrame is the largest encoded message the codec accepts; anything
// larger indicates corruption or abuse.
const MaxFrame = 64 * 1024

// Encode marshals the message to its XML wire form after validating it.
// It is a thin wrapper over AppendEncode (codec.go); callers on the hot
// path should hold their own buffer and call AppendEncode directly.
func Encode(m *Message) ([]byte, error) {
	b, err := AppendEncode(nil, m)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Decode parses and validates a message from its XML wire form. It is a
// thin wrapper over DecodeInto (codec.go) allocating a fresh Message, so
// the result can safely outlive the next frame; callers on the hot path
// that consume the message before reading the next frame should reuse a
// Message with DecodeInto.
func Decode(b []byte) (*Message, error) {
	m := newDecodeTarget()
	if err := DecodeInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// NewPing builds a liveness probe.
func NewPing(from, to string, seq, nonce uint64) *Message {
	return &Message{From: from, To: to, Seq: seq, Ping: &Ping{Nonce: nonce}}
}

// NewCommand builds a command message; params are alternating key, value
// pairs.
func NewCommand(from, to string, seq uint64, name string, params ...string) *Message {
	c := &Command{Name: name}
	for i := 0; i+1 < len(params); i += 2 {
		c.Params = append(c.Params, Param{Key: params[i], Value: params[i+1]})
	}
	return &Message{From: from, To: to, Seq: seq, Command: c}
}

// NewAck acknowledges command seq ofSeq.
func NewAck(from, to string, seq, ofSeq uint64, ok bool, errStr string) *Message {
	return &Message{From: from, To: to, Seq: seq, Ack: &Ack{OfSeq: ofSeq, OK: ok, Error: errStr}}
}

// NewTelemetry builds a telemetry sample.
func NewTelemetry(from, to string, seq uint64, key string, value float64, at time.Time) *Message {
	return &Message{
		From: from, To: to, Seq: seq,
		Telemetry: &Telemetry{Key: key, Value: value, AtUnixMilli: at.UnixMilli()},
	}
}

// Lookup returns a command parameter whole, text or number — what a
// forwarder puts into the command it sends on.
func (c *Command) Lookup(key string) (Param, bool) {
	for i := range c.Params {
		if c.Params[i].Key == key {
			return c.Params[i], true
		}
	}
	return Param{}, false
}

// Param looks up a command parameter's text by key.
func (c *Command) Param(key string) (string, bool) {
	p, ok := c.Lookup(key)
	return p.Text(), ok
}

// FloatParam looks up a command parameter as a finite float64: the number
// it carries, or its text parsed. NaN and ±Inf parse but are refused — no
// handler has a use for them, and one that stored them would restore them.
func (c *Command) FloatParam(key string) (float64, error) {
	p, ok := c.Lookup(key)
	if !ok {
		return 0, fmt.Errorf("xmlcmd: command %q missing param %q", c.Name, key)
	}
	f := p.num
	if !p.numeric {
		var err error
		if f, err = strconv.ParseFloat(p.Value, 64); err != nil {
			return 0, fmt.Errorf("xmlcmd: command %q param %q: %w", c.Name, key, err)
		}
	}
	if !finite(f) {
		return 0, fmt.Errorf("xmlcmd: command %q param %q: %v is not finite", c.Name, key, f)
	}
	return f, nil
}
