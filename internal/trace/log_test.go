package trace_test

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
)

var t0 = time.Date(2002, 6, 23, 10, 0, 0, 0, time.UTC)

// TestAppendAndEvents: a recorder attached before the appends sees each
// event in order, and what it hands out is a copy.
func TestAppendAndEvents(t *testing.T) {
	l := trace.NewLog()
	l.Add(t0, trace.Note, "", "", "before the recorder")
	rec := tracetest.Record(l)
	l.Add(t0, trace.FaultInjected, "rtu", "", "kill")
	l.Add(t0.Add(time.Second), trace.FailureDetected, "rtu", "", "")
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Kind != trace.FaultInjected || evs[1].Component != "rtu" {
		t.Fatalf("events = %+v", evs)
	}
	evs[0].Component = "mutated"
	if rec.Events()[0].Component != "rtu" {
		t.Fatal("Events exposed the recorder's state")
	}
}

func TestFilter(t *testing.T) {
	l := trace.NewLog()
	rec := tracetest.Record(l)
	l.Add(t0, trace.FaultInjected, "a", "", "")
	l.Add(t0, trace.ComponentReady, "a", "", "")
	l.Add(t0, trace.ComponentReady, "b", "", "")
	ready := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.ComponentReady })
	if len(ready) != 2 || ready[0].Component != "a" || ready[1].Component != "b" {
		t.Fatalf("filtered %+v, want a's and b's ready", ready)
	}
}

// TestReset: Reset is a no-op, so the subscribers keep seeing every event.
func TestReset(t *testing.T) {
	l := trace.NewLog()
	n := 0
	l.Subscribe(func(trace.Event) { n++ })
	l.Add(t0, trace.Note, "", "", "")
	l.Reset()
	l.Add(t0, trace.Note, "", "", "")
	if n != 2 {
		t.Fatalf("subscriber saw %d of 2 events across Reset", n)
	}
}
