package experiment

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSoakTreeIVAvailability(t *testing.T) {
	rs, err := Soak(context.Background(), []string{"IV"}, 4*time.Hour, 1001, 1)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	r := rs[0]
	// fedr alone fails ~24 times in 4h; recoveries must keep up.
	if r.Failures < 10 {
		t.Fatalf("only %d organic failures in 4h", r.Failures)
	}
	if r.GiveUps != 0 {
		t.Fatalf("%d give-ups during organic soak", r.GiveUps)
	}
	if r.Availability < 0.975 {
		t.Fatalf("tree IV availability = %.4f, want > 0.975", r.Availability)
	}
	if mean := r.Recovery.MeanSeconds(); mean > 10 {
		t.Fatalf("mean recovery = %.2fs under tree IV", mean)
	}
	out := RenderSoak(r)
	if !strings.Contains(out, "availability") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestSoakTreeIWorseThanTreeIV(t *testing.T) {
	rs, err := Soak(context.Background(), []string{"I", "IV"}, 3*time.Hour, 1002, 0)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	rI, rIV := rs[0], rs[1]
	if rIV.Availability <= rI.Availability {
		t.Fatalf("availability: IV=%.4f should beat I=%.4f",
			rIV.Availability, rI.Availability)
	}
	// Tree I pays ~25s per failure vs ~6s: mean recovery ratio ~3-4×.
	if rI.Recovery.MeanSeconds() < 2*rIV.Recovery.MeanSeconds() {
		t.Fatalf("mean recovery I=%.2f vs IV=%.2f: expected a large gap",
			rI.Recovery.MeanSeconds(), rIV.Recovery.MeanSeconds())
	}
}

func TestFreeRestartMTTF(t *testing.T) {
	r, err := FreeRestartMTTF(6*time.Hour, 1003)
	if err != nil {
		t.Fatalf("FreeRestartMTTF: %v", err)
	}
	iv, v := r.FedrFailures["IV"], r.FedrFailures["V"]
	if iv == 0 {
		t.Fatal("no fedr failures under tree IV; aging law not firing")
	}
	if v >= iv {
		t.Fatalf("free restarts did not improve fedr MTTF: IV=%d V=%d failures", iv, v)
	}
	// Both trees saw the same pbcom workload.
	if r.PbcomFailures["IV"] == 0 || r.PbcomFailures["V"] == 0 {
		t.Fatalf("pbcom workload missing: %+v", r.PbcomFailures)
	}
	out := RenderFreeRestart(r)
	if !strings.Contains(out, "MTTF^V") {
		t.Fatalf("render:\n%s", out)
	}
}
