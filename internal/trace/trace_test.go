package trace

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2002, 6, 23, 10, 0, 0, 0, time.UTC)

func TestAppendAndEvents(t *testing.T) {
	l := NewLog()
	l.Add(t0, FaultInjected, "rtu", "", "kill")
	l.Add(t0.Add(time.Second), FailureDetected, "rtu", "", "")
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].Kind != FaultInjected || evs[1].Component != "rtu" {
		t.Fatalf("events = %+v", evs)
	}
	// Events must be a copy.
	evs[0].Component = "mutated"
	if l.Events()[0].Component != "rtu" {
		t.Fatal("Events exposed internal state")
	}
}

func TestSubscribe(t *testing.T) {
	l := NewLog()
	var got []Event
	l.Subscribe(func(e Event) { got = append(got, e) })
	l.Add(t0, Note, "", "", "hello")
	if len(got) != 1 || got[0].Detail != "hello" {
		t.Fatalf("subscriber got %+v", got)
	}
}

func TestFilter(t *testing.T) {
	l := NewLog()
	l.Add(t0, FaultInjected, "a", "", "")
	l.Add(t0, ComponentReady, "a", "", "")
	l.Add(t0, ComponentReady, "b", "", "")
	ready := l.Filter(func(e Event) bool { return e.Kind == ComponentReady })
	if len(ready) != 2 {
		t.Fatalf("filtered %d events, want 2", len(ready))
	}
}

// TestOutages drives the one outage fold through the shapes its callers
// depend on. at is seconds after t0.
func TestOutages(t *testing.T) {
	type ev struct {
		at   int
		kind Kind
	}
	type want struct {
		down       bool
		downtime   time.Duration
		recoveries int
		giveUps    int
		closed     []time.Duration // what Observe reported, in order
		recovery   time.Duration
		recovered  bool
	}
	for _, tc := range []struct {
		name    string
		events  []ev
		horizon int // CloseAt this instant when > 0
		want    want
	}{
		{name: "empty fold"},
		{
			name:   "recovery without an outage is ignored",
			events: []ev{{1, SystemRecovered}, {2, ComponentReady}},
		},
		{
			name: "nested downs are one outage from the first",
			events: []ev{
				{1, FaultInjected}, {1, ComponentDown}, {3, ComponentKilled}, {4, ComponentKilled},
				{6, ComponentReady}, {9, ComponentReady}, {9, SystemRecovered},
			},
			want: want{downtime: 8 * time.Second, recoveries: 1, closed: []time.Duration{8 * time.Second},
				recovery: 8 * time.Second, recovered: true},
		},
		{
			name:   "give-up is counted and leaves the outage open",
			events: []ev{{2, ComponentDown}, {5, GiveUp}},
			want:   want{down: true, giveUps: 1},
		},
		{
			name:    "open outage is charged up to the horizon, not counted as recovered",
			events:  []ev{{1, ComponentDown}, {4, SystemRecovered}, {10, ComponentKilled}},
			horizon: 15,
			want:    want{down: true, downtime: 8 * time.Second, recoveries: 1, closed: []time.Duration{3 * time.Second}},
		},
		{
			name: "the second inject-recover span supersedes the first",
			events: []ev{
				{0, FaultInjected}, {0, ComponentDown}, {5, SystemRecovered},
				{60, FaultInjected}, {60, ComponentDown}, {69, SystemRecovered},
			},
			want: want{downtime: 14 * time.Second, recoveries: 2, closed: []time.Duration{5 * time.Second, 9 * time.Second},
				recovery: 9 * time.Second, recovered: true},
		},
		{
			name:   "an injected fault with no recovery yet reports none",
			events: []ev{{0, FaultInjected}, {0, ComponentDown}},
			want:   want{down: true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var o Outages
			var closed []time.Duration
			for _, e := range tc.events {
				if d, ok := o.Observe(Event{At: t0.Add(time.Duration(e.at) * time.Second), Kind: e.kind}); ok {
					closed = append(closed, d)
				}
			}
			if tc.horizon > 0 {
				o.CloseAt(t0.Add(time.Duration(tc.horizon) * time.Second))
			}
			d, ok := o.Recovery()
			got := want{o.Down, o.Downtime, o.Recoveries, o.GiveUps, closed, d, ok}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fold = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestRetention pins the ring: past Retain events the log keeps the newest
// in order, while a subscriber (and so a fold) still sees every one.
func TestRetention(t *testing.T) {
	l := NewLog()
	seen := 0
	l.Subscribe(func(Event) { seen++ })
	const total = Retain + Retain/2 + 7
	for i := 0; i < total; i++ {
		l.Add(t0.Add(time.Duration(i)*time.Millisecond), Note, "", "", "")
	}
	if l.Len() != Retain {
		t.Fatalf("Len = %d after %d appends, want %d", l.Len(), total, Retain)
	}
	if seen != total {
		t.Fatalf("subscriber saw %d of %d events", seen, total)
	}
	evs := l.Events()
	kept := l.Filter(func(Event) bool { return true })
	if len(evs) != Retain || len(kept) != Retain {
		t.Fatalf("Events returned %d, Filter %d, want %d", len(evs), len(kept), Retain)
	}
	for i, e := range evs {
		if want := t0.Add(time.Duration(total-Retain+i) * time.Millisecond); !e.At.Equal(want) || !kept[i].At.Equal(want) {
			t.Fatalf("event %d at %v (Filter %v), want %v", i, e.At, kept[i].At, want)
		}
	}
	l.Reset()
	l.Add(t0, Note, "", "", "after reset")
	if evs := l.Events(); len(evs) != 1 || evs[0].Detail != "after reset" {
		t.Fatalf("after Reset: %+v", evs)
	}
}

func TestReset(t *testing.T) {
	l := NewLog()
	l.Add(t0, Note, "", "", "")
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	// Subscribers survive reset.
	n := 0
	l.Subscribe(func(Event) { n++ })
	l.Reset()
	l.Add(t0, Note, "", "", "")
	if n != 1 {
		t.Fatal("subscriber lost after Reset")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: t0, Kind: RestartRequested, Component: "ses", Node: "[ses str]", Detail: "escalation"}
	s := e.String()
	for _, want := range []string{"restart-requested", "comp=ses", "node=[ses str]", "escalation"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if FaultInjected.String() != "fault-injected" {
		t.Fatal("kind name mismatch")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind should include number")
	}
}
