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
// changes the digest. Each row changes one field of an event whose line
// renders that field.
func TestDigestCoversEveryField(t *testing.T) {
	down := trace.Event{At: t0, Kind: trace.ComponentDown, Component: "rtu", Node: "[rtu]", Detail: "fault f1"}
	start := trace.Event{At: t0, Kind: trace.ComponentStarting, Component: "rtu", Count: 2, Stretch: 1.048}
	ready := trace.Event{At: t0, Kind: trace.ComponentReady, Component: "rtu", Count: 2, Dur: 4930 * time.Millisecond}
	injected := trace.Event{At: t0, Kind: trace.FaultInjected, Component: "rtu", Fault: "f1", Set: "rtu", Detail: "track/target"}
	digest := func(evs ...trace.Event) uint64 {
		l := trace.NewLog()
		r := Record(l)
		for _, e := range evs {
			l.Append(e)
		}
		return r.Digest()
	}
	for _, base := range []trace.Event{down, start, ready, injected} {
		if a, b := digest(base, base), digest(base, base); a != b {
			t.Fatalf("equal streams of %v digest %x and %x", base, a, b)
		}
	}
	for _, row := range []struct {
		field  string
		base   trace.Event
		change func(*trace.Event)
	}{
		{"At", down, func(e *trace.Event) { e.At = e.At.Add(time.Nanosecond) }},
		{"Kind", down, func(e *trace.Event) { e.Kind = trace.ComponentKilled }},
		{"Component", down, func(e *trace.Event) { e.Component = "str" }},
		{"Node", down, func(e *trace.Event) { e.Node = "[rtu str]" }},
		{"Detail", down, func(e *trace.Event) { e.Detail = "fault f2" }},
		{"boundary", down, func(e *trace.Event) { e.Component, e.Node = "rtu[rtu]", "" }},
		{"Count", ready, func(e *trace.Event) { e.Count = 3 }},
		{"Dur", ready, func(e *trace.Event) { e.Dur += 10 * time.Millisecond }},
		{"Action", ready, func(e *trace.Event) { e.Action = trace.Microreboot }},
		{"Stretch", start, func(e *trace.Event) { e.Stretch = 1.049 }},
		{"Fault", injected, func(e *trace.Event) { e.Fault = "f2" }},
		{"Set", injected, func(e *trace.Event) { e.Set = "rtu str" }},
		{"Hang", injected, func(e *trace.Event) { e.Hang = true }},
		{"Hard", injected, func(e *trace.Event) { e.Hard = true }},
		{"Detail as a state key", injected, func(e *trace.Event) { e.Detail = "session/epoch" }},
	} {
		e := row.base
		row.change(&e)
		if ref := digest(row.base, row.base); digest(row.base, e) == ref {
			t.Errorf("changing %s left the digest at %x", row.field, ref)
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
