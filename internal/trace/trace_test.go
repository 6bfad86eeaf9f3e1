package trace

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
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

// TestAppendText: one row per line form, each event as its writer makes
// it and each line the text fmt wrote for it before events carried typed
// fields.
func TestAppendText(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		e    Event
		want string
	}{
		{"start", Event{Kind: ComponentStarting, Component: "rtu", Count: 3, Stretch: 1.048},
			"10:00:00.000 component-starting comp=rtu incarnation=3 stretch=1.048"},
		{"start rounds to 3 places", Event{Kind: ComponentStarting, Component: "ses", Count: 12, Stretch: 1.0005},
			"10:00:00.000 component-starting comp=ses incarnation=12 stretch=1.000"},
		{"ready", Event{At: t0.Add(4930 * ms), Kind: ComponentReady, Component: "rtu", Count: 2, Dur: 4925 * ms},
			"10:00:04.930 component-ready    comp=rtu incarnation=2 startup=4.92s"},
		{"micro start", Event{Kind: ComponentStarting, Component: "ses.cache", Action: Microreboot, Count: 1, Dur: 500 * ms},
			"10:00:00.000 component-starting comp=ses.cache microreboot=1 reinit=0.50s"},
		{"micro ready", Event{Kind: ComponentReady, Component: "ses.cache", Action: Microreboot, Count: 1},
			"10:00:00.000 component-ready    comp=ses.cache microreboot=1 reattached"},
		{"crash", Event{Kind: FaultInjected, Component: "rtu", Fault: "f1", Set: "rtu"},
			"10:00:00.000 fault-injected     comp=rtu id=f1 mode=crash cure=[rtu] hard=false"},
		{"hang, two-member cure", Event{Kind: FaultInjected, Component: "ses", Fault: "f12", Hang: true, Set: "ses str"},
			"10:00:00.000 fault-injected     comp=ses id=f12 mode=hang cure=[ses str] hard=false"},
		{"state", Event{Kind: FaultInjected, Component: "str.track", Fault: "f7", Detail: "track/target", Set: "str str.track"},
			"10:00:00.000 fault-injected     comp=str.track id=f7 mode=crash state=track/target cure=[str str.track] hard=false"},
		{"hard", Event{Kind: FaultInjected, Component: "pbcom", Fault: "burst-3", Hard: true, Set: "fedr pbcom"},
			"10:00:00.000 fault-injected     comp=pbcom id=burst-3 mode=crash cure=[fedr pbcom] hard=true"},
		{"hung state", Event{Kind: FaultInjected, Component: "ses.cache", Fault: "f8", Hang: true, Detail: "session/epoch", Set: "ses.cache"},
			"10:00:00.000 fault-injected     comp=ses.cache id=f8 mode=hang state=session/epoch cure=[ses.cache] hard=false"},
		{"cured", Event{Kind: FaultCured, Component: "rtu", Fault: "f1"},
			"10:00:00.000 fault-cured        comp=rtu id=f1"},
		{"guess", Event{Kind: OracleGuess, Component: "ses", Node: "[ses str]", Detail: "escalating", Count: 1, Action: Restart},
			"10:00:00.000 oracle-guess       comp=ses node=[ses str] policy=escalating attempt=1 action=restart"},
		{"escalated guess", Event{Kind: OracleGuess, Component: "str.track", Node: "[str.track]", Detail: "fixed-ckpt", Count: 2, Action: CkptRestore},
			"10:00:00.000 oracle-guess       comp=str.track node=[str.track] policy=fixed-ckpt attempt=2 action=ckpt-restore"},
		{"guess of no action", Event{Kind: OracleGuess, Component: "ses", Node: "[ses]", Detail: "perfect", Count: 3},
			"10:00:00.000 oracle-guess       comp=ses node=[ses] policy=perfect attempt=3 action=unknown"},
		{"give-up", Event{Kind: GiveUp, Component: "fedr", Count: 6, Dur: 2 * time.Minute},
			"10:00:00.000 give-up            comp=fedr restart budget exhausted (6 in 2m0s)"},
		{"backoff", Event{Kind: Note, Component: "ses", Node: "[ses str]", Dur: 1500 * ms, Count: 3},
			"10:00:00.000 note               comp=ses node=[ses str] restart backoff 1.5s (3 recent restarts)"},
		{"hours of backoff", Event{Kind: Note, Component: "ses", Node: "[ses str]", Dur: 2*time.Hour + 3*ms, Count: 11},
			"10:00:00.000 note               comp=ses node=[ses str] restart backoff 2h0m0.003s (11 recent restarts)"},
		{"restart", Event{Kind: RestartRequested, Component: "ses", Node: "[ses str]", Action: Restart, Set: "ses str"},
			"10:00:00.000 restart-requested  comp=ses node=[ses str] restarting [ses str]"},
		{"restart of a named cell", Event{Kind: RestartRequested, Component: "rtu", Node: "R", Action: Restart, Set: "rtu"},
			"10:00:00.000 restart-requested  comp=rtu node=R restarting [rtu]"},
		{"microreboot", Event{Kind: RestartRequested, Component: "ses.cache", Node: "[ses.cache]", Action: Microreboot, Set: "ses.cache"},
			"10:00:00.000 restart-requested  comp=ses.cache node=[ses.cache] microrebooting [ses.cache]"},
		{"ckpt-restore", Event{Kind: RestartRequested, Component: "str.track", Node: "[str.track]", Action: CkptRestore, Dur: 250 * ms, Set: "str.track"},
			"10:00:00.000 restart-requested  comp=str.track node=[str.track] ckpt-restore (250ms) then reboot [str.track]"},
		{"ckpt-restore in µs", Event{Kind: RestartRequested, Component: "str.track", Node: "[str str.track]", Action: CkptRestore, Dur: 1500, Set: "str str.track"},
			"10:00:00.000 restart-requested  comp=str.track node=[str str.track] ckpt-restore (1.5µs) then reboot [str str.track]"},
		{"reason", Event{Kind: ComponentDown, Component: "rtu", Detail: "fault f3"},
			"10:00:00.000 component-down     comp=rtu fault f3"},
		{"note", Event{Kind: SystemRecovered, Detail: "all components serving"},
			"10:00:00.000 system-recovered   all components serving"},
		{"nothing but the kind", Event{Kind: Note},
			"10:00:00.000 note              "},
		{"unknown kind", Event{Kind: 99, Detail: "x"},
			"10:00:00.000 kind(99)           x"},
		{"lifecycle kind, free text", Event{Kind: ComponentReady, Component: "mbus", Detail: "incarnation=2"},
			"10:00:00.000 component-ready    comp=mbus incarnation=2"},
	} {
		if tc.e.At.IsZero() {
			tc.e.At = t0
		}
		if got := string(tc.e.AppendText([]byte("x"))); got != "x"+tc.want {
			t.Errorf("%s: AppendText wrote %q, want %q", tc.name, got[1:], tc.want)
		}
		if got := tc.e.String(); got != tc.want {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestEventSize: every subscriber gets an event by value.
func TestEventSize(t *testing.T) {
	n := unsafe.Sizeof(Event{})
	t.Logf("Event is %d bytes", n)
	if n > 128 {
		t.Fatalf("Event is %d bytes, want at most 128", n)
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
