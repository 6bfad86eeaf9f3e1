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

// TestFleetBeaconsFlow: with failures off, every sent beacon that has had
// time to arrive is received (perfect links, no loss).
func TestFleetBeaconsFlow(t *testing.T) {
	cfg := FleetConfig{
		Stations:     4,
		Horizon:      20 * time.Second,
		BaseSeed:     7,
		Workers:      2,
		BeaconPeriod: 2 * time.Second,
		NoFailures:   true,
	}
	r, err := RunFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.BeaconsSent == 0 {
		t.Fatal("no beacons sent")
	}
	// Beacons sent in the last link-latency of the horizon are still in
	// flight at the end; everything else must have been delivered.
	if r.BeaconsRecv < r.BeaconsSent-uint64(r.Stations) || r.BeaconsRecv > r.BeaconsSent {
		t.Fatalf("beacons sent %d / received %d", r.BeaconsSent, r.BeaconsRecv)
	}
	if r.Failures != 0 || r.Downtime != 0 {
		t.Fatalf("NoFailures run had failures=%d downtime=%v", r.Failures, r.Downtime)
	}
	if r.Availability != 1 {
		t.Fatalf("availability = %v, want 1", r.Availability)
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

// TestParseStationAddr pins the address scheme.
func TestParseStationAddr(t *testing.T) {
	if got := stationAddr(12, "xlink"); got != "s12:xlink" {
		t.Fatalf("stationAddr = %q", got)
	}
	n, local, ok := parseStationAddr("s12:xlink")
	if !ok || n != 12 || local != "xlink" {
		t.Fatalf("parse = %d %q %v", n, local, ok)
	}
	for _, bad := range []string{"rtu", "mbus", "fd", "s:x", "sx:y", "s-1:x", "ops"} {
		if _, _, ok := parseStationAddr(bad); ok {
			t.Fatalf("parse accepted %q", bad)
		}
	}
}
