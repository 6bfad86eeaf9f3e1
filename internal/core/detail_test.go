package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestOracleGuessDetailMatchesFmt(t *testing.T) {
	for _, policy := range []string{"perfect", "costaware"} {
		for _, attempt := range []int{1, 2, 10, 1 << 40} {
			for _, kind := range []ActionKind{ActRestart, ActMicroreboot, ActCkptRestore, 0} {
				want := fmt.Sprintf("policy=%s attempt=%d action=%s", policy, attempt, kind)
				if got := oracleGuessDetail(policy, attempt, kind); got != want {
					t.Errorf("OracleGuess detail %q, fmt wrote %q", got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { detailSink = oracleGuessDetail("perfect", 2, ActRestart) }); n != 1 {
		t.Errorf("a detail costs %.0f allocations, want 1 (the string)", n)
	}
}

// durations covers each branch of time.Duration's String: zero, ns, µs,
// ms, s, m and h, with and without fractions.
var durations = []time.Duration{0, 7, 1500, 250 * time.Millisecond, time.Second, 1500 * time.Millisecond,
	90 * time.Second, 2*time.Hour + 3*time.Millisecond}

func TestBackoffDetailMatchesFmt(t *testing.T) {
	for _, bo := range durations {
		for _, recent := range []int{1, 6, 123} {
			want := fmt.Sprintf("restart backoff %v (%d recent restarts)", bo, recent)
			if got := backoffDetail(bo, recent); got != want {
				t.Errorf("backoff detail %q, fmt wrote %q", got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { detailSink = backoffDetail(1500*time.Millisecond, 3) }); n != 1 {
		t.Errorf("a detail costs %.0f allocations, want 1 (the string)", n)
	}
}

func TestRestartDetailsMatchFmt(t *testing.T) {
	for _, set := range [][]string{{"rtu"}, {"ses", "ses.cache", "ses.est", "str"}} {
		for _, lat := range durations {
			want := fmt.Sprintf("ckpt-restore (%v) then reboot [%s]", lat, strings.Join(set, " "))
			if got := ckptDetail(lat, set); got != want {
				t.Errorf("ckpt-restore detail %q, fmt wrote %q", got, want)
			}
		}
		for _, verb := range []string{"restarting [", "microrebooting ["} {
			if got, want := restartDetail(verb, set), verb+strings.Join(set, " ")+"]"; got != want {
				t.Errorf("restart detail %q, want %q", got, want)
			}
		}
	}
	set := []string{"ses.cache", "ses.est"}
	if n := testing.AllocsPerRun(20, func() { detailSink = ckptDetail(250*time.Millisecond, set) }); n != 1 {
		t.Errorf("a ckpt-restore detail costs %.0f allocations, want 1 (the string)", n)
	}
	if n := testing.AllocsPerRun(20, func() { detailSink = restartDetail("restarting [", set) }); n != 1 {
		t.Errorf("a restart detail costs %.0f allocations, want 1 (the string)", n)
	}
}

// detailSink keeps a measured detail alive, as a trace line does.
var detailSink string
