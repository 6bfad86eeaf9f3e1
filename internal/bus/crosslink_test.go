package bus

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// prefixResolver treats addresses of the form "s<N>:<local>" as remote
// when N differs from home; everything else is local.
func prefixResolver(home int) func(string) (int, string, bool) {
	return func(addr string) (int, string, bool) {
		rest, ok := strings.CutPrefix(addr, "s")
		if !ok {
			return 0, "", false
		}
		idx := strings.IndexByte(rest, ':')
		if idx <= 0 {
			return 0, "", false
		}
		n := 0
		for _, c := range rest[:idx] {
			if c < '0' || c > '9' {
				return 0, "", false
			}
			n = n*10 + int(c-'0')
		}
		if n == home {
			return 0, "", false
		}
		return n, rest[idx+1:], true
	}
}

func TestCrossLinkInterceptsRemoteOnly(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)

	x := NewCrossLink(clock.Sim{K: r.k}, prefixResolver(0))
	r.bus.SetCrossLink(x)

	// Local traffic still routes through the broker untouched.
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "local", ""))
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 1 {
		t.Fatalf("local message not delivered: %v", a.received)
	}
	if x.Pending() != 0 {
		t.Fatalf("cross-link queued local traffic: %d", x.Pending())
	}

	// Remote traffic is intercepted, never delivered locally, and stamped
	// in send order.
	sentAt := r.k.Now()
	r.bus.Send(new(xmlcmd.Pool).Event("a", "s3:rtu", 2, "remote-1", ""))
	r.bus.Send(new(xmlcmd.Pool).Event("a", "s7:ops", 3, "remote-2", ""))
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 1 {
		t.Fatalf("remote message leaked to local delivery: %v", a.received)
	}
	st := r.bus.Stats()
	if st.CrossSent != 2 {
		t.Fatalf("CrossSent = %d, want 2", st.CrossSent)
	}

	var hs []Handoff
	hs = x.Drain(hs)
	if len(hs) != 2 {
		t.Fatalf("drained %d hand-offs, want 2", len(hs))
	}
	if hs[0].Station != 3 || hs[0].Msg.To != "rtu" || hs[0].Seq != 1 {
		t.Fatalf("handoff[0] = %+v", hs[0])
	}
	if hs[1].Station != 7 || hs[1].Msg.To != "ops" || hs[1].Seq != 2 {
		t.Fatalf("handoff[1] = %+v", hs[1])
	}
	if !hs[0].SentAt.Equal(sentAt) {
		t.Fatalf("SentAt = %v, want %v", hs[0].SentAt, sentAt)
	}
	if x.Pending() != 0 {
		t.Fatal("Drain did not empty the queue")
	}
}

func TestDeliverLocalBypassesBroker(t *testing.T) {
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.startAll(t)

	before := r.bus.Stats()
	r.bus.DeliverLocal(new(xmlcmd.Pool).Event("s9:rtu", "a", 1, "inbound", ""))
	if len(a.received) != 1 || a.received[0].Event.Name != "inbound" {
		t.Fatalf("a received %v", a.received)
	}
	st := r.bus.Stats()
	if st.Delivered != before.Delivered+1 {
		t.Fatalf("Delivered = %d, want %d", st.Delivered, before.Delivered+1)
	}
	// DeliverLocal is synchronous and broker-free: Sent must not move.
	if st.Sent != before.Sent {
		t.Fatalf("Sent moved: %d -> %d", before.Sent, st.Sent)
	}

	// A dead destination is a DroppedDest, same as the broker path.
	r.bus.DeliverLocal(new(xmlcmd.Pool).Event("s9:rtu", "nobody", 2, "lost", ""))
	if got := r.bus.Stats().DroppedDest; got != before.DroppedDest+1 {
		t.Fatalf("DroppedDest = %d, want %d", got, before.DroppedDest+1)
	}
}
