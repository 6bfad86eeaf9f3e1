package tracetest

import (
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
)

var t0 = time.Date(2002, 6, 23, 10, 0, 0, 0, time.UTC)

// TestDigestCoversEveryField: equal streams digest equal, and a change to
// any one field of one event, or a field's text moving to its neighbour,
// changes the digest.
func TestDigestCoversEveryField(t *testing.T) {
	base := trace.Event{At: t0, Kind: trace.ComponentReady, Component: "rtu", Node: "[rtu]", Detail: "incarnation=2"}
	digest := func(evs ...trace.Event) uint64 {
		l := trace.NewLog()
		r := Record(l)
		for _, e := range evs {
			l.Append(e)
		}
		return r.Digest()
	}
	ref := digest(base, base)
	if got := digest(base, base); got != ref {
		t.Fatalf("equal streams digest %x and %x", ref, got)
	}
	for name, change := range map[string]func(*trace.Event){
		"At":        func(e *trace.Event) { e.At = e.At.Add(time.Nanosecond) },
		"Kind":      func(e *trace.Event) { e.Kind = trace.ComponentStarting },
		"Component": func(e *trace.Event) { e.Component = "str" },
		"Node":      func(e *trace.Event) { e.Node = "[rtu str]" },
		"Detail":    func(e *trace.Event) { e.Detail = "incarnation=3" },
		"boundary":  func(e *trace.Event) { e.Component, e.Node = "rtu[rtu]", "" },
	} {
		e := base
		change(&e)
		if digest(base, e) == ref {
			t.Errorf("changing %s left the digest at %x", name, ref)
		}
	}
}

// TestRecordConcurrentAppends: appenders on other goroutines (as the live
// runtimes' dispatchers are) lose no event; run it under -race.
func TestRecordConcurrentAppends(t *testing.T) {
	l := trace.NewLog()
	r := Record(l)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				l.Add(t0, trace.Note, "", "", "")
				_ = r.Filter(func(e trace.Event) bool { return e.Kind == trace.Note })
			}
		}()
	}
	wg.Wait()
	if n := len(r.Events()); n != 1000 {
		t.Fatalf("recorded %d of 1000 events", n)
	}
}
