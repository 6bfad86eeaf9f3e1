package experiment

import (
	"context"
	"strings"
	"testing"
)

// satPass runs one tree's pass on its own.
func satPass(tree string, seed int64) (*PassOutcome, error) {
	out, err := SatPass(context.Background(), []string{tree}, seed, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestSatPassTreeIVHoldsLink(t *testing.T) {
	o, err := satPass("IV", 901)
	if err != nil {
		t.Fatalf("SatPass: %v", err)
	}
	if o.LinkBroken {
		t.Fatalf("tree IV broke the link with a %.2fs recovery", o.Recovery.Seconds())
	}
	if o.Recovery.Seconds() > 8 {
		t.Fatalf("tree IV fedr recovery = %.2fs", o.Recovery.Seconds())
	}
	frac := o.CollectedKb / o.AvailableKb
	if frac < 0.9 {
		t.Fatalf("tree IV collected only %.0f%% of the pass data", frac*100)
	}
}

func TestSatPassTreeILosesSession(t *testing.T) {
	o, err := satPass("I", 902)
	if err != nil {
		t.Fatalf("SatPass: %v", err)
	}
	if !o.LinkBroken {
		t.Fatalf("tree I held the link despite a %.2fs recovery", o.Recovery.Seconds())
	}
	frac := o.CollectedKb / o.AvailableKb
	if frac > 0.7 {
		t.Fatalf("tree I collected %.0f%% despite losing the session", frac*100)
	}
}

func TestSatPassDataAccounting(t *testing.T) {
	o, err := satPass("IV", 903)
	if err != nil {
		t.Fatal(err)
	}
	if o.CollectedKb <= 0 || o.CollectedKb > o.AvailableKb {
		t.Fatalf("collected %.0f of %.0f kbit", o.CollectedKb, o.AvailableKb)
	}
	if !o.FailureAt.After(o.Pass.AOS) || !o.FailureAt.Before(o.Pass.LOS) {
		t.Fatal("failure not mid-pass")
	}
	out := RenderPassOutcome(o)
	for _, want := range []string{"tree IV", "science data", "recovered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
