package experiment

import (
	"context"
	"testing"
	"time"
)

// smallFleet is a constellation small enough for the unit-test budget but
// wide enough to exercise cross-shard beacons, organic failures and
// recovery on several shards.
func smallFleet(workers int) FleetConfig {
	return FleetConfig{
		Stations:     8,
		Group:        2,
		Trees:        []string{"IV", "II"},
		Horizon:      90 * time.Second,
		BaseSeed:     2002,
		Workers:      workers,
		BeaconPeriod: 2 * time.Second,
		FailMTTF:     30 * time.Second,
	}
}

// TestFleetFoldByteIdenticalAcrossWorkers is the campaign-level tentpole
// gate: the same constellation and seed must fold byte-identically on a
// sequential run and on any multi-worker run.
func TestFleetFoldByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ref, err := RunFleet(context.Background(), smallFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Parcels == 0 || ref.BeaconsRecv == 0 {
		t.Fatalf("no cross-shard traffic (parcels=%d, recv=%d); gate is vacuous", ref.Parcels, ref.BeaconsRecv)
	}
	if ref.Failures == 0 {
		t.Fatal("no organic failures; gate is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := RunFleet(context.Background(), smallFleet(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got.Fold() != ref.Fold() {
			t.Fatalf("workers=%d fold diverged:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, ref.Fold(), workers, got.Fold())
		}
	}
}

// TestFleetFoldSeedSensitive: different seeds must fold differently.
func TestFleetFoldSeedSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgA := smallFleet(2)
	cfgB := smallFleet(2)
	cfgB.BaseSeed = 2003
	a, err := RunFleet(context.Background(), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(context.Background(), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fold() == b.Fold() {
		t.Fatal("different seeds folded identically")
	}
}

// TestFleetBeaconsFlow: with failures off, a beacon is received exactly
// when its send instant plus DefaultLinkLatency is at or before the
// horizon's end (perfect links, no loss). The horizon puts station 0's
// last beacon due on the end instant itself and the other stations' last
// beacons still in flight. At Group 2 a station's peer may share its
// shard, and the beacon still takes one link latency.
func TestFleetBeaconsFlow(t *testing.T) {
	const period = 2 * time.Second
	horizon := 18*time.Second + beaconOffset(0, period) + DefaultLinkLatency
	for _, group := range []int{1, 2} {
		cfg := FleetConfig{
			Stations:     4,
			Group:        group,
			Horizon:      horizon,
			BaseSeed:     7,
			Workers:      2,
			BeaconPeriod: period,
			NoFailures:   true,
		}
		r, err := RunFleet(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sent, due uint64
		for i := 0; i < cfg.Stations; i++ {
			for at := beaconOffset(i, period); at < horizon; at += period {
				sent++
				if at+DefaultLinkLatency <= horizon {
					due++
				}
			}
		}
		if due == sent || due == 0 {
			t.Fatalf("group %d: %d of %d beacons due in the horizon; test is vacuous", group, due, sent)
		}
		if r.BeaconsSent != sent || r.BeaconsRecv != due {
			t.Fatalf("group %d: beacons sent %d / received %d, want %d / %d",
				group, r.BeaconsSent, r.BeaconsRecv, sent, due)
		}
		if r.Failures != 0 || r.Downtime != 0 {
			t.Fatalf("group %d: NoFailures run had failures=%d downtime=%v", group, r.Failures, r.Downtime)
		}
		if r.Availability != 1 {
			t.Fatalf("group %d: availability = %v, want 1", group, r.Availability)
		}
	}
}

// TestFleetSingleStation: the degenerate constellation runs (no peers, no
// cross traffic) rather than wedging on a self-link.
func TestFleetSingleStation(t *testing.T) {
	r, err := RunFleet(context.Background(), FleetConfig{
		Stations:   1,
		Horizon:    10 * time.Second,
		BaseSeed:   5,
		NoFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.BeaconsSent != 0 || r.Parcels != 0 {
		t.Fatalf("single station produced cross traffic: %+v", r)
	}
}

// TestFleetConfigValidation pins the config error paths.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := RunFleet(context.Background(), FleetConfig{}); err == nil {
		t.Fatal("zero stations accepted")
	}
}

// TestFleetGroupChangesPlacement: Group is part of the reproducibility
// key; changing it changes the schedule (and the fold says so), while the
// same Group reproduces exactly.
func TestFleetGroupChangesPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := smallFleet(2)
	a, err := RunFleet(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fold() != b.Fold() {
		t.Fatal("identical configs folded differently")
	}
	regrouped := base
	regrouped.Group = 4
	c, err := RunFleet(context.Background(), regrouped)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fold() == a.Fold() {
		t.Fatal("different Group folded identically (placement should be part of the key)")
	}
}
