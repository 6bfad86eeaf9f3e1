package xmlcmd

// This file is the hot wire path: a hand-rolled encoder/decoder for the
// fixed xmlcmd vocabulary, replacing reflection-driven encoding/xml on
// every TCP frame. The real-time runtime serializes each liveness ping,
// command and telemetry sample through this codec, so it is written for
// zero steady-state allocations:
//
//   - AppendEncode appends the wire form to a caller-owned buffer and
//     produces output byte-identical to xml.Marshal for every valid
//     message (pinned by the corpus test in codec_test.go), so the frame
//     format is unchanged on the wire.
//   - DecodeInto parses the known envelope/attribute grammar directly —
//     no reflection, no xml.Decoder — reusing the destination message's
//     body structs and, through a connection's Decoder, the strings every
//     frame repeats, and keeps a parameter value written the way the
//     encoder writes a number as that number, so a steady-state decode
//     allocates only the other parameter values. DecodeHeader is the same
//     parser stopped after the start tag: what the broker routes on.
//
// The decoder is deliberately *stricter* than encoding/xml: everything it
// accepts, encoding/xml accepts with an identical result — each parameter
// with the same Key and the same Text() as encoding/xml's Value (the
// property FuzzCodecDiff checks) — but it rejects XML it will never see
// from the encoder (comments, processing instructions, namespaces, unknown
// elements). Rejecting a frame tears down the connection exactly as a
// corrupt frame always has, so strictness is safe; accepting something
// encoding/xml would reject (or reading it differently) would be a silent
// wire-format fork, which the fuzz target exists to prevent.

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// AppendEncode validates m and appends its XML wire form to dst, returning
// the extended buffer. The output is byte-identical to xml.Marshal. On
// error the returned buffer is dst unchanged. The appended frame is
// limited to MaxFrame. Steady state performs zero allocations once dst has
// capacity.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, `<message from="`...)
	dst = appendEscaped(dst, m.From)
	dst = append(dst, `" to="`...)
	dst = appendEscaped(dst, m.To)
	dst = append(dst, `" seq="`...)
	dst = strconv.AppendUint(dst, m.Seq, 10)
	dst = append(dst, `">`...)
	switch {
	case m.Ping != nil:
		dst = append(dst, `<ping nonce="`...)
		dst = strconv.AppendUint(dst, m.Ping.Nonce, 10)
		dst = append(dst, `"></ping>`...)
	case m.Pong != nil:
		dst = append(dst, `<pong nonce="`...)
		dst = strconv.AppendUint(dst, m.Pong.Nonce, 10)
		dst = append(dst, `" incarnation="`...)
		dst = strconv.AppendInt(dst, int64(m.Pong.Incarnation), 10)
		dst = append(dst, `"></pong>`...)
	case m.Command != nil:
		dst = append(dst, `<command name="`...)
		dst = appendEscaped(dst, m.Command.Name)
		dst = append(dst, `">`...)
		dst = appendParams(dst, m.Command.Params)
		dst = append(dst, `</command>`...)
	case m.Ack != nil:
		dst = append(dst, `<ack of="`...)
		dst = strconv.AppendUint(dst, m.Ack.OfSeq, 10)
		dst = append(dst, `" ok="`...)
		dst = strconv.AppendBool(dst, m.Ack.OK)
		if m.Ack.Error != "" {
			dst = append(dst, `" error="`...)
			dst = appendEscaped(dst, m.Ack.Error)
		}
		dst = append(dst, `"></ack>`...)
	case m.Telemetry != nil:
		dst = append(dst, `<telemetry key="`...)
		dst = appendEscaped(dst, m.Telemetry.Key)
		dst = append(dst, `" value="`...)
		dst = strconv.AppendFloat(dst, m.Telemetry.Value, 'g', -1, 64)
		dst = append(dst, `" atUnixMilli="`...)
		dst = strconv.AppendInt(dst, m.Telemetry.AtUnixMilli, 10)
		dst = append(dst, `"></telemetry>`...)
	case m.Event != nil:
		dst = append(dst, `<event name="`...)
		dst = appendEscaped(dst, m.Event.Name)
		if m.Event.Detail != "" {
			dst = append(dst, `" detail="`...)
			dst = appendEscaped(dst, m.Event.Detail)
		}
		dst = append(dst, `">`...)
		dst = appendParams(dst, m.Event.Params)
		dst = append(dst, `</event>`...)
	case m.Sync != nil:
		dst = append(dst, `<sync epoch="`...)
		dst = strconv.AppendInt(dst, m.Sync.Epoch, 10)
		dst = append(dst, `"></sync>`...)
	case m.SyncAck != nil:
		dst = append(dst, `<syncack epoch="`...)
		dst = strconv.AppendInt(dst, m.SyncAck.Epoch, 10)
		dst = append(dst, `"></syncack>`...)
	case m.Health != nil:
		dst = append(dst, `<health incarnation="`...)
		dst = strconv.AppendInt(dst, int64(m.Health.Incarnation), 10)
		dst = append(dst, `" uptimeMs="`...)
		dst = strconv.AppendInt(dst, m.Health.UptimeMs, 10)
		dst = append(dst, `" queueDepth="`...)
		dst = strconv.AppendInt(dst, int64(m.Health.QueueDepth), 10)
		dst = append(dst, `" ageScore="`...)
		dst = strconv.AppendFloat(dst, m.Health.AgeScore, 'g', -1, 64)
		dst = append(dst, `" warnings="`...)
		dst = strconv.AppendInt(dst, int64(m.Health.Warnings), 10)
		dst = append(dst, `" suspect="`...)
		dst = strconv.AppendBool(dst, m.Health.Suspect)
		dst = append(dst, `"></health>`...)
	}
	dst = append(dst, `</message>`...)
	if len(dst)-start > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	return dst, nil
}

func appendParams(dst []byte, params []Param) []byte {
	for i := range params {
		dst = append(dst, `<param key="`...)
		dst = appendEscaped(dst, params[i].Key)
		dst = append(dst, `" value="`...)
		if params[i].numeric {
			dst = strconv.AppendFloat(dst, params[i].num, 'g', -1, 64)
		} else {
			dst = appendEscaped(dst, params[i].Value)
		}
		dst = append(dst, `"></param>`...)
	}
	return dst
}

// appendEscaped appends s with the exact escaping xml's EscapeString
// applies to attribute values, including the replacement-character
// handling for invalid UTF-8 and characters outside the XML range.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !isXMLChar(r) || (r == utf8.RuneError && w == 1) {
				esc = "�"
				break
			}
			i += w
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += w
		last = i
	}
	return append(dst, s[last:]...)
}

// isXMLChar reports whether r is in the XML 1.0 character range (the same
// predicate encoding/xml applies to both input and output).
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Decoder errors. These are static so the reject path of a hostile frame
// allocates as little as possible.
var (
	errBadSyntax   = errors.New("malformed frame")
	errBadName     = errors.New("bad element or attribute name")
	errBadAttr     = errors.New("bad attribute value")
	errBadEntity   = errors.New("bad entity reference")
	errBadChar     = errors.New("character outside XML range")
	errBadUTF8     = errors.New("invalid UTF-8")
	errUnknownElem = errors.New("unknown element")
	errMismatch    = errors.New("mismatched end tag")
	errTrailing    = errors.New("trailing data after envelope")
	errNamespaced  = errors.New("namespaced frames not supported")
)

// decodeScratch holds one instance of every body type so DecodeInto can
// rebuild a message without allocating. It hangs off the Message lazily:
// messages built by the New* constructors never pay for it.
type decodeScratch struct {
	ping      Ping
	pong      Pong
	command   Command
	ack       Ack
	telemetry Telemetry
	event     Event
	sync      Sync
	syncAck   SyncAck
	health    Health
}

// newDecodeTarget returns a fresh envelope with its scratch bodies in the
// same allocation: what Decode and an empty FreeList hand DecodeInto.
func newDecodeTarget() *Message {
	e := new(struct {
		m Message
		s decodeScratch
	})
	e.m.scratch = &e.s
	return &e.m
}

// Decoder is one connection's decode state: a small cache of the short
// tokens a peer repeats in every frame — bus addresses, command and event
// names, parameter and telemetry keys — so a warm decode copies only
// parameter values, error strings and details. It belongs to whoever reads
// the connection (bus.FrameReader holds one) rather than to the message: a
// cache per envelope would multiply it by every pooled envelope. A nil
// *Decoder is valid and resolves only the static well-known tokens. Not
// safe for concurrent use.
type Decoder struct {
	// Indexed by token hash, two ways per set, most recent first: a
	// station's vocabulary is a few dozen tokens, and direct mapping alone
	// would let two that collide ("gate" and "mode" do) evict each other on
	// every frame.
	tokens [tokenSets][2]string
}

const (
	// tokenSets is comfortably above a station's vocabulary (nine
	// addresses, a dozen command names and keys); a collision only costs
	// the copy the cache would have saved.
	tokenSets = 64
	// maxTokenLen keeps long one-off strings from evicting the vocabulary.
	maxTokenLen = 32
)

// internedStrings maps the wire bytes of well-known tokens — bus addresses
// and the control-command vocabulary — to shared string constants. Lookup
// with a []byte key compiles to a no-copy map access.
var internedStrings = map[string]string{
	AddrMBus:     AddrMBus,
	AddrFedrcom:  AddrFedrcom,
	AddrFedr:     AddrFedr,
	AddrPbcom:    AddrPbcom,
	AddrSES:      AddrSES,
	AddrSTR:      AddrSTR,
	AddrRTU:      AddrRTU,
	AddrFD:       AddrFD,
	AddrREC:      AddrREC,
	"supervisor": "supervisor",
	"ctl":        "ctl",
	"faultgen":   "faultgen",
	"register":   "register",
	"sys-hang":   "sys-hang",
}

// staticToken returns the shared constant for a well-known token, else a
// fresh copy.
func staticToken(b []byte) string {
	if s, ok := internedStrings[string(b)]; ok {
		return s
	}
	return string(b)
}

// token returns the string for a repeated wire token: the cached copy when
// the connection has seen it, else the static constant or a fresh copy,
// which then goes to the front of its set.
func (dc *Decoder) token(b []byte) string {
	if dc == nil || len(b) > maxTokenLen {
		return staticToken(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	set := &dc.tokens[h%tokenSets]
	if set[0] == string(b) {
		return set[0]
	}
	if set[1] == string(b) {
		return set[1]
	}
	set[0], set[1] = staticToken(b), set[0]
	return set[0]
}

// DecodeInto parses and validates a message from its XML wire form into m,
// reusing m's internal scratch bodies and parameter slices. The decoded
// message (including its body pointer) is only valid until the next
// DecodeInto on the same m — callers that hand messages to another
// goroutine must decode into a fresh Message (Decode does) or a recycled
// envelope (FreeList.Decode). A parameter value that is a finite number's
// shortest 'g' form — the encoder's rendering of a Num — decodes as that
// number; any other value stays the text it arrived as, so Text() and a
// re-encoded frame read the same either way. Steady state allocates only
// the strings that are not repeated tokens: nothing for ping, pong,
// ack-without-error and telemetry, one per text parameter value for a
// command.
func (dc *Decoder) DecodeInto(b []byte, m *Message) error {
	if len(b) > MaxFrame {
		return ErrFrameTooLarge
	}
	if m.scratch == nil {
		m.scratch = new(decodeScratch)
	}
	m.XMLName = xml.Name{Local: "message"}
	m.From, m.To, m.Seq = "", "", 0
	m.Owner = nil
	m.Ping, m.Pong, m.Command, m.Ack = nil, nil, nil, nil
	m.Telemetry, m.Event, m.Sync, m.SyncAck, m.Health = nil, nil, nil, nil, nil
	var d parser
	d.b, d.m, d.dec = b, m, dc
	if err := d.parse(); err != nil {
		return fmt.Errorf("xmlcmd: unmarshal: %w", err)
	}
	return m.Validate()
}

// DecodeInto is Decoder.DecodeInto without a token cache.
func DecodeInto(b []byte, m *Message) error {
	return (*Decoder)(nil).DecodeInto(b, m)
}

// Header is the routing part of an envelope: the attributes of its
// <message> start tag.
type Header struct {
	From, To string
	Seq      uint64
}

// DecodeHeader parses a frame's <message …> start tag and stops at its '>':
// what a broker needs to route the frame without materialising it. It runs
// the same start-tag code as DecodeInto — same names, quoting, entities and
// character rules — and rejects what DecodeInto rejects there (malformed
// syntax, xmlns, an empty from or to, a frame over MaxFrame), so every
// frame DecodeInto accepts has a header, with the same three values. The
// body is not looked at; the endpoint's DecodeInto is what validates it.
func (dc *Decoder) DecodeHeader(b []byte) (Header, error) {
	if len(b) > MaxFrame {
		return Header{}, ErrFrameTooLarge
	}
	var d parser
	d.b, d.dec = b, dc
	if err := d.startTag(); err != nil {
		return Header{}, fmt.Errorf("xmlcmd: unmarshal: %w", err)
	}
	switch {
	case d.hdr.From == "":
		return Header{}, ErrMissingFrom
	case d.hdr.To == "":
		return Header{}, ErrMissingTo
	}
	return d.hdr, nil
}

// parser is a pull parser over one frame.
type parser struct {
	b   []byte
	i   int
	m   *Message
	dec *Decoder
	hdr Header
	tmp []byte // entity/CR expansion buffer; allocated only when needed

	// The attribute nextAttr last read, how its start tag ended, and the
	// first error of the attribute loop (sticky, bufio.Scanner style).
	name, val []byte
	selfClose bool
	err       error
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (d *parser) skipSpace() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// readName consumes an element or attribute name. Only the ASCII subset of
// XML names is accepted — a strict subset of what encoding/xml allows, and
// everything the encoder emits. Colons are rejected, so namespaced input
// never parses (keeping decoded messages identical to encoding/xml's,
// which would otherwise record a namespace).
func (d *parser) readName() ([]byte, error) {
	start := d.i
	if d.i >= len(d.b) {
		return nil, errBadSyntax
	}
	if nameByte[d.b[d.i]] != nameStart {
		return nil, errBadName
	}
	d.i++
	for d.i < len(d.b) && nameByte[d.b[d.i]] != 0 {
		d.i++
	}
	return d.b[start:d.i], nil
}

// nameByte classifies a byte of an element or attribute name: nameStart
// for letters and '_', nameRest for what may only follow (digits, '-',
// '.'), zero for everything else.
var nameByte = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = nameStart, nameStart
	}
	t['_'] = nameStart
	for c := '0'; c <= '9'; c++ {
		t[c] = nameRest
	}
	t['-'], t['.'] = nameRest, nameRest
	return t
}()

const (
	nameStart = 1
	nameRest  = 2
)

// startTag reads `<message …>` up to and including the end of the tag into
// d.hdr, leaving d.selfClose set.
func (d *parser) startTag() error {
	d.skipSpace()
	if d.i >= len(d.b) || d.b[d.i] != '<' {
		return errBadSyntax
	}
	d.i++
	name, err := d.readName()
	if err != nil {
		return err
	}
	if string(name) != "message" {
		return errUnknownElem
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "from":
			d.hdr.From = d.dec.token(d.val)
		case "to":
			d.hdr.To = d.dec.token(d.val)
		case "seq":
			d.uint(&d.hdr.Seq)
		}
	}
	return d.err
}

// parse reads the whole envelope: <message ...> body </message>.
func (d *parser) parse() error {
	if err := d.startTag(); err != nil {
		return err
	}
	d.m.From, d.m.To, d.m.Seq = d.hdr.From, d.hdr.To, d.hdr.Seq
	if !d.selfClose {
		if err := d.parseBodies(); err != nil {
			return err
		}
	}
	d.skipSpace()
	if d.i != len(d.b) {
		return errTrailing
	}
	return nil
}

// parseBodies reads child elements until </message>.
func (d *parser) parseBodies() error {
	for {
		d.skipSpace()
		if d.i >= len(d.b) || d.b[d.i] != '<' {
			return errBadSyntax
		}
		d.i++
		if d.i < len(d.b) && d.b[d.i] == '/' {
			d.i++
			return d.closeTag("message")
		}
		name, err := d.readName()
		if err != nil {
			return err
		}
		switch string(name) {
		case "ping":
			err = d.ping()
		case "pong":
			err = d.pong()
		case "command":
			err = d.command()
		case "ack":
			err = d.ack()
		case "telemetry":
			err = d.telemetry()
		case "event":
			err = d.event()
		case "sync":
			err = d.sync()
		case "syncack":
			err = d.syncAck()
		case "health":
			err = d.health()
		default:
			return errUnknownElem
		}
		if err != nil {
			return err
		}
	}
}

// closeTag consumes the remainder of an already-opened end tag: the name
// (which must match want) and the closing '>'.
func (d *parser) closeTag(want string) error {
	name, err := d.readName()
	if err != nil {
		return err
	}
	if string(name) != want {
		return errMismatch
	}
	d.skipSpace()
	if d.i >= len(d.b) || d.b[d.i] != '>' {
		return errBadSyntax
	}
	d.i++
	return nil
}

// closeSimple consumes whitespace and the end tag of a childless element.
func (d *parser) closeSimple(want string) error {
	d.skipSpace()
	if d.i+1 >= len(d.b) || d.b[d.i] != '<' || d.b[d.i+1] != '/' {
		return errBadSyntax
	}
	d.i += 2
	return d.closeTag(want)
}

// endSimple finishes a childless element after its attribute loop: the
// loop's error if it had one, else the end tag unless the start tag was
// self-closing.
func (d *parser) endSimple(want string) error {
	if d.err != nil || d.selfClose {
		return d.err
	}
	return d.closeSimple(want)
}

// nextAttr reads the next attribute of the element whose name has just
// been consumed into d.name and d.val, and reports whether there was one.
// It returns false at the end of the start tag, with d.selfClose saying how
// it ended, and on the first error, which it leaves in d.err; callers
// switch on the names they know and skip the rest (parsed and validated,
// then dropped, as encoding/xml drops them).
func (d *parser) nextAttr() bool {
	if d.err != nil {
		return false
	}
	d.skipSpace()
	if d.i >= len(d.b) {
		d.err = errBadSyntax
		return false
	}
	switch d.b[d.i] {
	case '>':
		d.i++
		d.selfClose = false
		return false
	case '/':
		d.i++
		if d.i >= len(d.b) || d.b[d.i] != '>' {
			d.err = errBadSyntax
			return false
		}
		d.i++
		d.selfClose = true
		return false
	}
	if d.name, d.err = d.readName(); d.err != nil {
		return false
	}
	if string(d.name) == "xmlns" {
		d.err = errNamespaced
		return false
	}
	d.skipSpace()
	if d.i >= len(d.b) || d.b[d.i] != '=' {
		d.err = errBadSyntax
		return false
	}
	d.i++
	d.skipSpace()
	d.val, d.err = d.attrValue()
	return d.err == nil
}

// Typed setters for the attribute nextAttr last read; a value that does
// not parse ends the attribute loop with errBadAttr.

func (d *parser) uint(dst *uint64) {
	n, ok := parseUint(d.val)
	if !ok {
		d.err = errBadAttr
		return
	}
	*dst = n
}

func (d *parser) int64(dst *int64) {
	n, ok := parseInt(d.val)
	if !ok {
		d.err = errBadAttr
		return
	}
	*dst = n
}

func (d *parser) int(dst *int) {
	var n int64
	if d.int64(&n); d.err == nil {
		*dst = int(n)
	}
}

func (d *parser) bool(dst *bool) {
	b, ok := parseBool(d.val)
	if !ok {
		d.err = errBadAttr
		return
	}
	*dst = b
}

func (d *parser) float(dst *float64) {
	f, err := strconv.ParseFloat(string(d.val), 64)
	if err != nil {
		d.err = errBadAttr
		return
	}
	*dst = f
}

// plainAttrByte marks the bytes that stand for themselves in an attribute
// value whichever quote delimits it — printable ASCII, tab and newline, less
// the quotes, '&' and '<' — so the scan spends one table load on nearly
// every byte of real traffic and the full switch on the rest.
var plainAttrByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	t['"'], t['\''], t['&'], t['<'] = false, false, false, false
	return t
}()

// attrValue reads a quoted attribute value, expanding entity references
// and normalising \r / \r\n to \n exactly as encoding/xml does, and
// enforcing the XML character range on the result. The returned slice
// aliases either the input (fast path) or d.tmp, and is valid until the
// next attrValue call.
func (d *parser) attrValue() ([]byte, error) {
	if d.i >= len(d.b) {
		return nil, errBadSyntax
	}
	quote := d.b[d.i]
	if quote != '"' && quote != '\'' {
		return nil, errBadSyntax
	}
	d.i++
	start := d.i
	// Fast path: scan for the closing quote; fall into the expanding path
	// at the first entity reference or carriage return.
	for d.i < len(d.b) {
		c := d.b[d.i]
		if plainAttrByte[c] {
			d.i++
			continue
		}
		switch {
		case c == quote:
			v := d.b[start:d.i]
			d.i++
			return v, nil
		case c == '&' || c == '\r':
			return d.attrValueSlow(start, quote)
		case c == '<':
			// Forbidden in attribute values by the XML grammar; the
			// encoder always escapes it.
			return nil, errBadSyntax
		case c < 0x20 && c != '\t' && c != '\n':
			return nil, errBadChar
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, w := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && w == 1 {
				return nil, errBadUTF8
			}
			if !isXMLChar(r) {
				return nil, errBadChar
			}
			d.i += w
		}
	}
	return nil, errBadSyntax
}

// attrValueSlow finishes an attribute value that needs rewriting, copying
// into d.tmp.
func (d *parser) attrValueSlow(start int, quote byte) ([]byte, error) {
	d.tmp = append(d.tmp[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == quote:
			d.i++
			return d.tmp, nil
		case c == '&':
			r, err := d.entity()
			if err != nil {
				return nil, err
			}
			d.tmp = utf8.AppendRune(d.tmp, r)
		case c == '\r':
			d.i++
			if d.i < len(d.b) && d.b[d.i] == '\n' {
				d.i++
			}
			d.tmp = append(d.tmp, '\n')
		case c == '<':
			return nil, errBadSyntax
		case c < 0x20 && c != '\t' && c != '\n':
			return nil, errBadChar
		case c < utf8.RuneSelf:
			d.tmp = append(d.tmp, c)
			d.i++
		default:
			r, w := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && w == 1 {
				return nil, errBadUTF8
			}
			if !isXMLChar(r) {
				return nil, errBadChar
			}
			d.tmp = append(d.tmp, d.b[d.i:d.i+w]...)
			d.i += w
		}
	}
	return nil, errBadSyntax
}

// entity parses one entity reference starting at '&': the five predefined
// names plus decimal and (lowercase-x) hexadecimal character references.
// The resulting rune must be in the XML character range — a strict subset
// of encoding/xml, which launders out-of-range references through U+FFFD.
func (d *parser) entity() (rune, error) {
	d.i++ // consume '&'
	if d.i < len(d.b) && d.b[d.i] == '#' {
		d.i++
		base := uint32(10)
		if d.i < len(d.b) && d.b[d.i] == 'x' {
			base = 16
			d.i++
		}
		var n uint32
		digits := 0
		for d.i < len(d.b) {
			c := d.b[d.i]
			var v uint32
			switch {
			case c >= '0' && c <= '9':
				v = uint32(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				v = uint32(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				v = uint32(c-'A') + 10
			case c == ';':
				if digits == 0 {
					return 0, errBadEntity
				}
				d.i++
				r := rune(n)
				if !isXMLChar(r) {
					return 0, errBadChar
				}
				return r, nil
			default:
				return 0, errBadEntity
			}
			n = n*base + v
			if n > utf8.MaxRune {
				return 0, errBadEntity
			}
			digits++
			d.i++
		}
		return 0, errBadEntity
	}
	start := d.i
	for d.i < len(d.b) && d.i-start <= 4 {
		if d.b[d.i] == ';' {
			name := d.b[start:d.i]
			d.i++
			switch string(name) {
			case "lt":
				return '<', nil
			case "gt":
				return '>', nil
			case "amp":
				return '&', nil
			case "apos":
				return '\'', nil
			case "quot":
				return '"', nil
			}
			return 0, errBadEntity
		}
		d.i++
	}
	return 0, errBadEntity
}

// Body element parsers. Each parses attributes, consumes the end tag, and
// installs the body pointer. The scratch struct is zeroed only on the
// element's FIRST occurrence in a frame: encoding/xml unmarshals a
// repeated element into the same (already-populated) struct, so later
// occurrences merge — attributes they omit keep the earlier values, and
// param lists append (FuzzCodecDiff holds the codec to exactly that).
// Names and keys come from the connection's token cache; values, error
// strings and details are one-off and are copied.

func (d *parser) ping() error {
	p := &d.m.scratch.ping
	if d.m.Ping == nil {
		*p = Ping{}
	}
	for d.nextAttr() {
		if string(d.name) == "nonce" {
			d.uint(&p.Nonce)
		}
	}
	if err := d.endSimple("ping"); err != nil {
		return err
	}
	d.m.Ping = p
	return nil
}

func (d *parser) pong() error {
	p := &d.m.scratch.pong
	if d.m.Pong == nil {
		*p = Pong{}
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "nonce":
			d.uint(&p.Nonce)
		case "incarnation":
			d.int(&p.Incarnation)
		}
	}
	if err := d.endSimple("pong"); err != nil {
		return err
	}
	d.m.Pong = p
	return nil
}

func (d *parser) command() error {
	c := &d.m.scratch.command
	if d.m.Command == nil {
		c.Name = ""
		c.Params = c.Params[:0]
	}
	for d.nextAttr() {
		if string(d.name) == "name" {
			c.Name = d.dec.token(d.val)
		}
	}
	if err := d.params(&c.Params, "command"); err != nil {
		return err
	}
	d.m.Command = c
	return nil
}

func (d *parser) event() error {
	e := &d.m.scratch.event
	if d.m.Event == nil {
		e.Name = ""
		e.Detail = ""
		e.Params = e.Params[:0]
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "name":
			e.Name = d.dec.token(d.val)
		case "detail":
			e.Detail = string(d.val)
		}
	}
	if err := d.params(&e.Params, "event"); err != nil {
		return err
	}
	d.m.Event = e
	return nil
}

// params finishes an element that carries <param .../> children: nothing
// more if its start tag was self-closing, else children until the parent's
// end tag. Each child is filled in place at the end of dst.
func (d *parser) params(dst *[]Param, parent string) error {
	if d.err != nil || d.selfClose {
		return d.err
	}
	for {
		d.skipSpace()
		if d.i >= len(d.b) || d.b[d.i] != '<' {
			return errBadSyntax
		}
		d.i++
		if d.i < len(d.b) && d.b[d.i] == '/' {
			d.i++
			return d.closeTag(parent)
		}
		name, err := d.readName()
		if err != nil {
			return err
		}
		if string(name) != "param" {
			return errUnknownElem
		}
		*dst = append(*dst, Param{})
		p := &(*dst)[len(*dst)-1]
		for d.nextAttr() {
			switch string(d.name) {
			case "key":
				p.Key = d.dec.token(d.val)
			case "value":
				// A value in the encoder's own rendering of a number is
				// kept as that number, which costs no string; any other
				// text is kept as it came.
				if f, ok := canonicalNum(d.val); ok {
					p.Value, p.num, p.numeric = "", f, true
				} else {
					p.Value, p.num, p.numeric = string(d.val), 0, false
				}
			}
		}
		if err := d.endSimple("param"); err != nil {
			return err
		}
	}
}

// maxNumText is the longest text strconv's shortest 'g' form of a float64
// takes: "-2.2250738585072014e-308".
const maxNumText = 24

// canonicalNum reports the finite number v spells when v is exactly the
// text AppendEncode renders that number as — strconv's shortest 'g' form —
// so keeping the number instead of the text changes neither Text() nor a
// re-encoded frame. "007.50", "+1", "1E6", "0x1p-2", "NaN" and
// "437100000" spell numbers in other forms and stay text.
func canonicalNum(v []byte) (float64, bool) {
	if len(v) == 0 || len(v) > maxNumText || v[0] != '-' && (v[0] < '0' || v[0] > '9') {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(v), 64)
	if err != nil || !finite(f) {
		return 0, false
	}
	var buf [maxNumText]byte
	return f, string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) == string(v)
}

func (d *parser) ack() error {
	a := &d.m.scratch.ack
	if d.m.Ack == nil {
		*a = Ack{}
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "of":
			d.uint(&a.OfSeq)
		case "ok":
			d.bool(&a.OK)
		case "error":
			a.Error = string(d.val)
		}
	}
	if err := d.endSimple("ack"); err != nil {
		return err
	}
	d.m.Ack = a
	return nil
}

func (d *parser) telemetry() error {
	t := &d.m.scratch.telemetry
	if d.m.Telemetry == nil {
		*t = Telemetry{}
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "key":
			t.Key = d.dec.token(d.val)
		case "value":
			d.float(&t.Value)
		case "atUnixMilli":
			d.int64(&t.AtUnixMilli)
		}
	}
	if err := d.endSimple("telemetry"); err != nil {
		return err
	}
	d.m.Telemetry = t
	return nil
}

func (d *parser) sync() error {
	s := &d.m.scratch.sync
	if d.m.Sync == nil {
		*s = Sync{}
	}
	for d.nextAttr() {
		if string(d.name) == "epoch" {
			d.int64(&s.Epoch)
		}
	}
	if err := d.endSimple("sync"); err != nil {
		return err
	}
	d.m.Sync = s
	return nil
}

func (d *parser) syncAck() error {
	s := &d.m.scratch.syncAck
	if d.m.SyncAck == nil {
		*s = SyncAck{}
	}
	for d.nextAttr() {
		if string(d.name) == "epoch" {
			d.int64(&s.Epoch)
		}
	}
	if err := d.endSimple("syncack"); err != nil {
		return err
	}
	d.m.SyncAck = s
	return nil
}

func (d *parser) health() error {
	h := &d.m.scratch.health
	if d.m.Health == nil {
		*h = Health{}
	}
	for d.nextAttr() {
		switch string(d.name) {
		case "incarnation":
			d.int(&h.Incarnation)
		case "uptimeMs":
			d.int64(&h.UptimeMs)
		case "queueDepth":
			d.int(&h.QueueDepth)
		case "ageScore":
			d.float(&h.AgeScore)
		case "warnings":
			d.int(&h.Warnings)
		case "suspect":
			d.bool(&h.Suspect)
		}
	}
	if err := d.endSimple("health"); err != nil {
		return err
	}
	d.m.Health = h
	return nil
}

// parseUint mirrors strconv.ParseUint(s, 10, 64) over bytes without
// forcing a string allocation: digits only, overflow rejected.
func parseUint(v []byte) (uint64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > (1<<64-1)/10 {
			return 0, false
		}
		n *= 10
		d := uint64(c - '0')
		if n+d < n {
			return 0, false
		}
		n += d
	}
	return n, true
}

// parseInt mirrors strconv.ParseInt(s, 10, 64) over bytes.
func parseInt(v []byte) (int64, bool) {
	neg := false
	if len(v) > 0 && (v[0] == '+' || v[0] == '-') {
		neg = v[0] == '-'
		v = v[1:]
	}
	n, ok := parseUint(v)
	if !ok {
		return 0, false
	}
	if !neg {
		if n > 1<<63-1 {
			return 0, false
		}
		return int64(n), true
	}
	if n > 1<<63 {
		return 0, false
	}
	return -int64(n), true
}

// parseBool accepts exactly the strconv.ParseBool vocabulary.
func parseBool(v []byte) (bool, bool) {
	switch string(v) {
	case "1", "t", "T", "true", "TRUE", "True":
		return true, true
	case "0", "f", "F", "false", "FALSE", "False":
		return false, true
	}
	return false, false
}
