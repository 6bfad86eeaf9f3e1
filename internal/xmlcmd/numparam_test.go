package xmlcmd

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// num is Num for values the test knows to be finite.
func num(key string, f float64) Param {
	p, err := Num(key, f)
	if err != nil {
		panic(err)
	}
	return p
}

// numCommand is NewCommand with numeric parameters: alternating key, value.
func numCommand(from, to string, seq uint64, name string, kv ...any) *Message {
	m := NewCommand(from, to, seq, name)
	for i := 0; i+1 < len(kv); i += 2 {
		m.Command.Params = append(m.Command.Params, num(kv[i].(string), kv[i+1].(float64)))
	}
	return m
}

// TestNumericParamEncodesAsItsText: both encoders render a numeric
// parameter — in a command or an event, beside text parameters — as the
// shortest text that parses back to it, the bytes a sender that formatted
// the float itself puts on the wire, and the fast one allocates nothing
// doing it.
func TestNumericParamEncodesAsItsText(t *testing.T) {
	event := new(Pool).Event(AddrFD, AddrREC, 3, "link", "lost")
	event.Event.Params = []Param{num("snrDb", -3.25), {Key: "why", Value: "a&b"}}
	asText := new(Pool).Event(AddrFD, AddrREC, 3, "link", "lost")
	asText.Event.Params = []Param{{Key: "snrDb", Value: "-3.25"}, {Key: "why", Value: "a&b"}}
	mixed := numCommand(AddrSES, AddrRTU, 2, "tune", "freqHz", 4.371029653146064e+08)
	mixed.Command.Params = append(mixed.Command.Params, Param{Key: "mode", Value: "fm<narrow>"})
	for _, tc := range []struct{ numeric, text *Message }{
		{numCommand(AddrSES, AddrSTR, 1, "point", "azRad", 4.9807672363561, "elRad", -0.5433825307141718),
			NewCommand(AddrSES, AddrSTR, 1, "point", "azRad", "4.9807672363561", "elRad", "-0.5433825307141718")},
		{mixed, NewCommand(AddrSES, AddrRTU, 2, "tune", "freqHz", "4.371029653146064e+08", "mode", "fm<narrow>")},
		{numCommand("a", "b", 4, "zeros", "z", 0.0, "nz", math.Copysign(0, -1)), NewCommand("a", "b", 4, "zeros", "z", "0", "nz", "-0")},
		{event, asText},
	} {
		want, err := Encode(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Encode(tc.numeric)
		if err != nil {
			t.Fatal(err)
		}
		std, err := StdEncode(tc.numeric)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, want) || !bytes.Equal(std, want) {
			t.Fatalf("numeric parameters encode differently from their text:\nfast %s\n std %s\nwant %s", fast, std, want)
		}
		buf := make([]byte, 0, len(want))
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := AppendEncode(buf[:0], tc.numeric); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("encoding %s allocates %v per frame, want 0", tc.numeric, allocs)
		}
	}
}

// TestNumericParamExact: a float64 handed over as a number comes back with
// the same bits whether the command is read in place (the simulated
// fabric) or after a trip over the wire through either decoder, and its
// text is strconv's shortest form.
func TestNumericParamExact(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072009e-308, // subnormals and their edge
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32,
		437.1e6, 4.371029653146064e+08, 0.1, 1e21, 1e-7, 123456789.123456789,
	}
	rng := rand.New(rand.NewSource(2002))
	for len(floats) < 10_000 {
		f := math.Float64frombits(rng.Uint64()) // every exponent, subnormals included
		if finite(f) {
			floats = append(floats, f)
		}
	}
	var buf []byte
	var m Message
	var dec Decoder
	for _, f := range floats {
		msg := numCommand(AddrSES, AddrRTU, 1, "tune", "freqHz", f)
		text := strconv.FormatFloat(f, 'g', -1, 64)
		if got, ok := msg.Command.Param("freqHz"); !ok || got != text {
			t.Fatalf("Param on numeric %v = %q, want %q", f, got, text)
		}
		if got, err := msg.Command.FloatParam("freqHz"); err != nil || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("FloatParam in place: %v (%v), want %v", got, err, f)
		}
		var err error
		if buf, err = AppendEncode(buf[:0], msg); err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(buf, &m); err != nil {
			t.Fatalf("decode %s: %v", buf, err)
		}
		if got, _ := m.Command.Param("freqHz"); got != text {
			t.Fatalf("decoded text %q, want %q", got, text)
		}
		if got, err := m.Command.FloatParam("freqHz"); err != nil || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("FloatParam after the wire: %x (%v), want %x (%s)", math.Float64bits(got), err, math.Float64bits(f), buf)
		}
		std, err := StdDecode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := std.Command.FloatParam("freqHz"); err != nil || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("FloatParam after StdDecode: %v (%v), want %v", got, err, f)
		}
	}
}

// TestNonFiniteNumbersRefused: strconv parses "NaN" and "Inf", so a number
// that is not finite is refused by name — when a sender tries to build it
// and when a receiver asks for it, however it is spelled.
func TestNonFiniteNumbersRefused(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if p, err := Num("azRad", f); err == nil {
			t.Errorf("Num(%v) = %+v, want an error", f, p)
		}
	}
	for _, text := range []string{"NaN", "nan", "Inf", "-Inf", "+inf", "infinity", "-Infinity", "1e999", "", "12abc"} {
		cmd := NewCommand("gate", AddrSTR, 1, "point", "azRad", text).Command
		if f, err := cmd.FloatParam("azRad"); err == nil {
			t.Errorf("FloatParam(%q) = %v, want an error", text, f)
		}
	}
	if _, err := NewCommand("gate", AddrSTR, 1, "point").Command.FloatParam("azRad"); err == nil {
		t.Error("FloatParam on a missing parameter succeeded")
	}
	for text, want := range map[string]float64{"007": 7, "1e3": 1000, "-0": math.Copysign(0, -1), "1.7976931348623157e308": math.MaxFloat64} {
		cmd := NewCommand("gate", AddrSTR, 1, "point", "azRad", text).Command
		if f, err := cmd.FloatParam("azRad"); err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("FloatParam(%q) = %v, %v, want %v", text, f, err, want)
		}
	}
}

// TestForwardedParamKeepsItsForm: Lookup hands a forwarder the parameter
// as it arrived. One decoded from a frame leaves as the same text — not
// normalised: "007.50" stays "007.50" — and a number stays a number.
func TestForwardedParamKeepsItsForm(t *testing.T) {
	var pool Pool
	frame, err := Encode(NewCommand("gate", AddrRTU, 1, "tune", "freqHz", "007.50", "mode", "fm"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := in.Command.Lookup("freqHz")
	if !ok || p.Value != "007.50" {
		t.Fatalf("Lookup = %+v, %v", p, ok)
	}
	out, err := Encode(pool.Command(AddrRTU, AddrFedr, 9, "radio-tune", p))
	if err != nil {
		t.Fatal(err)
	}
	if want := `<param key="freqHz" value="007.50"></param>`; !bytes.Contains(out, []byte(want)) {
		t.Fatalf("forwarded frame %s lacks %s", out, want)
	}

	sent := pool.Command(AddrSES, AddrRTU, 2, "tune", num("freqHz", 437.1e6))
	p, _ = sent.Command.Lookup("freqHz")
	fwd := pool.Command(AddrRTU, AddrFedr, 10, "radio-tune", p)
	if got := fwd.Command.Params[0]; got != num("freqHz", 437.1e6) {
		t.Fatalf("forwarded number became %+v", got)
	}
	if _, ok := sent.Command.Lookup("mode"); ok {
		t.Fatal("Lookup found a parameter that is not there")
	}
}

// TestDecodeKeepsCanonicalNumbers: a received value decodes as a number
// exactly when it is the encoder's own rendering of a finite number, and
// otherwise stays the text it came as. Either way Text(), the re-encoded
// frame and FloatParam are what they are for the text: FloatParam accepts
// and refuses what strconv.ParseFloat and the finiteness rule do.
func TestDecodeKeepsCanonicalNumbers(t *testing.T) {
	for _, tc := range []struct {
		text    string
		numeric bool
	}{
		{"0", true}, {"-0", true}, {"1", true}, {"-1", true}, {"0.5", true}, {"437.5", true},
		{"4.371e+08", true}, {"4.9807672363561", true}, {"-0.5433825307141718", true},
		{"1e+21", true}, {"1e-07", true}, {"5e-324", true}, {"1.7976931348623157e+308", true},
		{"-2.2250738585072014e-308", true}, {"123456", true},

		{"437100000", false}, {"007.50", false}, {"+1", false}, {"1E6", false}, {"1e21", false},
		{"1e6", false}, {"0x1p-2", false}, {".5", false}, {"5.", false}, {"0.50", false},
		{"1e-400", false}, {"1e999", false}, {"NaN", false}, {"nan", false}, {"Inf", false},
		{"-Inf", false}, {"+inf", false}, {"1_000", false}, {"12abc", false}, {"-", false},
		{"", false}, {"fm-narrow", false}, {" 1", false}, {"1 ", false}, {"--1", false},
	} {
		frame, err := Encode(NewCommand("gate", AddrSTR, 1, "point", "azRad", tc.text))
		if err != nil {
			t.Fatal(err)
		}
		var m Message
		var dec Decoder
		if err := dec.DecodeInto(frame, &m); err != nil {
			t.Fatalf("decode %q: %v", tc.text, err)
		}
		p := m.Command.Params[0]
		if p.numeric != tc.numeric {
			t.Errorf("%q decoded numeric=%v, want %v", tc.text, p.numeric, tc.numeric)
		}
		if p.Text() != tc.text {
			t.Errorf("%q decoded to text %q", tc.text, p.Text())
		}
		if again, err := Encode(&m); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%q re-encoded to %s, want %s (%v)", tc.text, again, frame, err)
		}
		want, perr := strconv.ParseFloat(tc.text, 64)
		accept := perr == nil && finite(want)
		got, err := m.Command.FloatParam("azRad")
		if (err == nil) != accept || accept && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("FloatParam(%q) = %v, %v; the text parses to %v, %v", tc.text, got, err, want, perr)
		}
	}
}
