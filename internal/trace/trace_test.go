package trace

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2002, 6, 23, 10, 0, 0, 0, time.UTC)

func TestSubscribe(t *testing.T) {
	l := NewLog()
	var got []Event
	l.Subscribe(func(e Event) { got = append(got, e) })
	l.Add(t0, Note, "", "", "hello")
	if len(got) != 1 || got[0].Detail != "hello" {
		t.Fatalf("subscriber got %+v", got)
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
