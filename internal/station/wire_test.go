package station

import (
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// updateFrames rewrites testdata/command_frames.golden. The file was
// rendered by the commit before command parameters could be numbers, when
// ses formatted every float into a string; rewriting it gives up the proof
// that the wire did not change.
var updateFrames = flag.Bool("update-frames", false, "rewrite the command-frame golden")

// frameTap encodes every command a station sends, as the live transport
// would, before passing it on.
type frameTap struct {
	t      *testing.T
	next   proc.Transport
	frames []string
}

func (f *frameTap) Send(m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindCommand {
		b, err := xmlcmd.Encode(m)
		if err != nil {
			f.t.Fatalf("encode %v: %v", m, err)
		}
		std, err := xml.Marshal(m)
		if err != nil || string(std) != string(b) {
			f.t.Fatalf("encoding/xml disagrees with AppendEncode on %v:\n std %s (%v)\nfast %s", m, std, err, b)
		}
		f.frames = append(f.frames, string(b))
	}
	f.next.Send(m)
}

// TestCommandFramesUnchanged: a number travels inside the station as a
// float64 and becomes text only when a frame is encoded; the frames ses's
// point and tune and the radio-tune forwarded by rtu and fedr encode to are
// byte for byte the ones the string-formatting parent put on the wire.
func TestCommandFramesUnchanged(t *testing.T) {
	r := newRig(t, Split, 5)
	tap := &frameTap{t: t, next: r.bus}
	r.mgr.SetTransport(tap)
	r.boot(t)
	if err := r.k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(tap.frames, "\n") + "\n"
	for _, want := range []string{
		`from="ses" to="str" `, `from="ses" to="rtu" `, `from="rtu" to="fedr" `, `from="fedr" to="pbcom" `, `name="connect"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("no frame with %s among %d", want, len(tap.frames))
		}
	}
	path := filepath.Join("testdata", "command_frames.golden")
	if *updateFrames {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("frame %d differs from the parent's:\n got %s\nwant %s", i, g[i], append(w, "<none>")[min(i, len(w))])
			}
		}
		t.Fatalf("%d frames, the parent sent %d", len(g)-1, len(w)-1)
	}
}

// TestForwardersKeepReceivedText: on the live path a parameter arrives as
// the text some client wrote. rtu and fedr validate it as a number and pass
// it on as it came — "0437100000.50", not the 4.371e+08 it parses to.
func TestForwardersKeepReceivedText(t *testing.T) {
	r := newRig(t, Split, 5)
	tap := &frameTap{t: t, next: r.bus}
	r.mgr.SetTransport(tap)
	r.boot(t)
	tap.frames = nil
	r.bus.Send(xmlcmd.NewCommand("gate", RTU, 1, "tune", "freqHz", "0437100000.50"))
	if err := r.k.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := `<command name="radio-tune"><param key="freqHz" value="0437100000.50"></param></command>`
	for _, hop := range []string{`<message from="rtu" to="fedr" `, `<message from="fedr" to="pbcom" `} {
		forwarded := false
		for _, frame := range tap.frames {
			forwarded = forwarded || strings.HasPrefix(frame, hop) && strings.Contains(frame, want)
		}
		if !forwarded {
			t.Fatalf("no %s… frame forwards the text as received:\n%s", hop, strings.Join(tap.frames, "\n"))
		}
	}
}
