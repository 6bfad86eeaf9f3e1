package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestShardChaosCampaign runs the broker-shard kill/recover campaign at
// its smallest useful shape and asserts the structural properties that
// must hold on any machine: full delivery on surviving shards during
// every outage, zero delivery into dead shards, and both recovery paths
// (per-shard and whole-bus) completing.
func TestShardChaosCampaign(t *testing.T) {
	res, err := RunShardChaos(ShardChaosConfig{
		Shards:         2,
		DestsPerShard:  1,
		FramesPerPhase: 3,
		PhaseTimeout:   20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("got %d rounds, want 2", len(res.Rounds))
	}
	for _, rd := range res.Rounds {
		if rd.SurvivingSent == 0 {
			t.Fatalf("round %d sent no surviving-shard traffic", rd.Killed)
		}
		if rd.SurvivingDelivered != rd.SurvivingSent {
			t.Fatalf("round %d: %d/%d surviving frames delivered — shard kill leaked beyond its address slice",
				rd.Killed, rd.SurvivingDelivered, rd.SurvivingSent)
		}
		if rd.DeadDelivered != 0 {
			t.Fatalf("round %d: %d frames delivered into the dead shard", rd.Killed, rd.DeadDelivered)
		}
		if rd.Recovery <= 0 {
			t.Fatalf("round %d: non-positive recovery %v", rd.Killed, rd.Recovery)
		}
	}
	if !res.Isolated() {
		t.Fatal("Isolated() false on clean rounds")
	}
	if res.WholeBusRecovery <= 0 {
		t.Fatalf("non-positive whole-bus recovery %v", res.WholeBusRecovery)
	}

	out := RenderShardChaos(res)
	for _, want := range []string{"Broker-shard chaos", "isolation held", "whole-bus restart"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
