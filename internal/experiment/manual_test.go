package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestManualVsAuto(t *testing.T) {
	r, err := ManualVsAutoCfg(context.Background(), RunConfig{Trials: 4, BaseSeed: 11_000})
	if err != nil {
		t.Fatalf("ManualVsAuto: %v", err)
	}
	// The operator path is minutes; automation is seconds.
	if r.ManualRecovery.MeanSeconds() < 120 {
		t.Fatalf("manual recovery = %.1fs; operator model too fast", r.ManualRecovery.MeanSeconds())
	}
	if r.AutoRecovery.MeanSeconds() > 10 {
		t.Fatalf("automated recovery = %.1fs", r.AutoRecovery.MeanSeconds())
	}
	if r.ManualRecovery.MeanSeconds() < 20*r.AutoRecovery.MeanSeconds() {
		t.Fatalf("automation advantage too small: %.1f vs %.1f",
			r.ManualRecovery.MeanSeconds(), r.AutoRecovery.MeanSeconds())
	}
	// Availability ordering follows.
	if r.AutoAvail <= r.ManualAvail {
		t.Fatalf("availability: auto %.4f should beat manual %.4f", r.AutoAvail, r.ManualAvail)
	}
	out := RenderManual(r)
	if !strings.Contains(out, "automated") || !strings.Contains(out, "manual") {
		t.Fatalf("render:\n%s", out)
	}
}
