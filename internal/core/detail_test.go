package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
)

// durations covers each branch of time.Duration's String: zero, ns, µs,
// ms, s, m and h, with and without fractions.
var durations = []time.Duration{0, 7, 1500, 250 * time.Millisecond, time.Second, 1500 * time.Millisecond,
	90 * time.Second, 2*time.Hour + 3*time.Millisecond}

// TestRestartDetailsMatchFmt pins a RestartRequested line as push builds
// it (the action, a restore's latency and the node's set) to the text fmt
// wrote, on an indexed node and on one no tree has indexed, and checks
// that building it allocates nothing on an indexed node.
func TestRestartDetailsMatchFmt(t *testing.T) {
	for _, set := range [][]string{{"rtu"}, {"ses", "ses.cache", "ses.est", "str"}} {
		cell := func() *Node {
			n := &Node{Components: set[:1]}
			for _, c := range set[1:] {
				n.Children = append(n.Children, &Node{Components: []string{c}})
			}
			return n
		}
		loose, indexed := cell(), cell()
		if _, err := NewTree("x", indexed); err != nil {
			t.Fatal(err)
		}
		for _, n := range []*Node{loose, indexed} {
			detail := func(kind ActionKind, lat time.Duration) string {
				e := trace.Event{Kind: trace.RestartRequested, Action: kind, Dur: lat, Set: n.set()}
				return string(e.AppendDetail(nil))
			}
			for _, lat := range durations {
				want := fmt.Sprintf("ckpt-restore (%v) then reboot [%s]", lat, strings.Join(set, " "))
				if got := detail(ActCkptRestore, lat); got != want {
					t.Errorf("ckpt-restore detail %q, fmt wrote %q", got, want)
				}
			}
			for _, tc := range []struct {
				kind ActionKind
				verb string
			}{{ActRestart, "restarting ["}, {ActMicroreboot, "microrebooting ["}} {
				if got, want := detail(tc.kind, 0), tc.verb+strings.Join(set, " ")+"]"; got != want {
					t.Errorf("restart detail %q, want %q", got, want)
				}
			}
		}
	}
	n := &Node{Components: []string{"ses.cache"}, Children: []*Node{{Components: []string{"ses.est"}}}}
	if _, err := NewTree("x", n); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 128)
	for _, kind := range []ActionKind{ActRestart, ActCkptRestore} {
		if a := testing.AllocsPerRun(20, func() {
			e := trace.Event{Kind: trace.RestartRequested, Action: kind, Dur: 250 * time.Millisecond, Set: n.set()}
			buf = e.AppendDetail(buf[:0])
		}); a != 0 {
			t.Errorf("a %v detail costs %.0f allocations, want 0", kind, a)
		}
	}
}
