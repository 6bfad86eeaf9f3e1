package fault

import (
	"fmt"
	"strings"
	"testing"
)

func TestInjectedDetailMatchesFmt(t *testing.T) {
	faults := []Fault{
		{ID: "f1", Manifest: "rtu"},
		{ID: "f12", Manifest: "ses", Hang: true},
		{ID: "burst-3", Manifest: "pbcom", Cure: []string{"pbcom", "fedr", "pbcom"}, Hard: true},
		{ID: "f7", Manifest: "str.track", StateKey: "track/target", Cure: []string{"str", "str.track"}},
		{ID: "f8", Manifest: "ses.cache", Hang: true, StateKey: "session/epoch"},
	}
	for _, f := range faults {
		mode := "crash"
		if f.Hang {
			mode = "hang"
		}
		if f.StateKey != "" {
			mode += " state=" + f.StateKey
		}
		want := fmt.Sprintf("id=%s mode=%s cure=[%s] hard=%v", f.ID, mode, strings.Join(f.CureList(), " "), f.Hard)
		if got := injectedDetail(f, f.CureList()); got != want {
			t.Errorf("FaultInjected detail %q, fmt wrote %q", got, want)
		}
	}
	f, cure := faults[2], faults[2].CureList()
	if n := testing.AllocsPerRun(20, func() { detailSink = injectedDetail(f, cure) }); n != 1 {
		t.Errorf("a detail costs %.0f allocations, want 1 (the string)", n)
	}
}

func TestKillReasonMatchesFmt(t *testing.T) {
	for _, seq := range []int{1, 9, 10, 12345, 1 << 40} {
		if got, want := killReason("", seq), "fault "+fmt.Sprintf("f%d", seq); got != want {
			t.Errorf("kill reason %q, fmt wrote %q", got, want)
		}
	}
	if got, want := killReason("burst-3", 0), "fault burst-3"; got != want {
		t.Errorf("kill reason %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { detailSink = killReason("", 42) }); n != 1 {
		t.Errorf("a kill reason costs %.0f allocations, want 1 (the string)", n)
	}
}

// detailSink keeps a measured detail alive, as a trace line does.
var detailSink string
