package ckpt

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/store"
)

func rig(t *testing.T) (*Manager, *store.Store, *sim.Kernel) {
	t.Helper()
	k := sim.New(1)
	clk := clock.Sim{K: k}
	st := store.New(clk, store.Options{})
	l, err := st.Acquire("track/target", "str", time.Hour)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := l.Put([]byte("AOS-047")); err != nil {
		t.Fatalf("put: %v", err)
	}
	m := New(clk, st, Options{
		Interval: 10 * time.Second,
		Keys:     map[string][]string{"str.track": {"track/target"}},
	})
	t.Cleanup(m.Close)
	return m, st, k
}

func TestSnapshotAndRestore(t *testing.T) {
	m, st, k := rig(t)

	// The constructor took an immediate snapshot of the live key.
	if _, ok := m.RestoreCost("str.track"); !ok {
		t.Fatal("no restore cost after initial snapshot")
	}
	if _, ok := m.RestoreCost("ses.cache"); ok {
		t.Fatal("cost reported for unmapped component")
	}

	// Corrupt the value, then restore: the pre-corruption bytes return.
	l, err := st.Acquire("track/target", "str", time.Hour)
	if err != nil {
		t.Fatalf("reacquire: %v", err)
	}
	if _, err := l.Put([]byte("GARBAGE")); err != nil {
		t.Fatalf("corrupt put: %v", err)
	}
	var gotKeys []string
	var gotAt time.Time
	m.OnRestore(func(keys []string, takenAt time.Time) { gotKeys, gotAt = keys, takenAt })

	lat, err := m.Restore("str.track")
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if lat < 1200*time.Millisecond {
		t.Fatalf("restore latency %v below floor", lat)
	}
	val, _, ok := st.Get("track/target")
	if !ok || string(val) != "AOS-047" {
		t.Fatalf("after restore got %q ok=%v, want AOS-047", val, ok)
	}
	if len(gotKeys) != 1 || gotKeys[0] != "track/target" {
		t.Fatalf("OnRestore keys = %v", gotKeys)
	}
	if !gotAt.Equal(k.Now()) {
		t.Fatalf("OnRestore takenAt = %v, want initial snapshot time %v", gotAt, k.Now())
	}
}

func TestPeriodicSnapshotTracksWrites(t *testing.T) {
	m, st, k := rig(t)

	l, err := st.Acquire("track/target", "str", time.Hour)
	if err != nil {
		t.Fatalf("reacquire: %v", err)
	}
	if _, err := l.Put([]byte("AOS-048")); err != nil {
		t.Fatalf("put: %v", err)
	}
	// After a tick the snapshot advances to the new value.
	if err := k.RunFor(11 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := l.Put([]byte("AOS-049")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := m.Restore("str.track"); err != nil {
		t.Fatalf("restore: %v", err)
	}
	val, _, _ := st.Get("track/target")
	if string(val) != "AOS-048" {
		t.Fatalf("restore gave %q, want AOS-048 (last checkpointed)", val)
	}
}

// TestPeriodicSnapshotsStopAtClose: one snapshot per interval, and the
// tick already queued when the manager closes runs nothing: no snapshot,
// no re-arm.
func TestPeriodicSnapshotsStopAtClose(t *testing.T) {
	m, _, k := rig(t)
	before := M.Snapshots.Value()
	if err := k.RunFor(35 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := M.Snapshots.Value() - before; n != 3 {
		t.Fatalf("snapshots = %d in 3.5 intervals, want 3", n)
	}
	m.Close()
	if k.Pending() != 1 {
		t.Fatalf("pending = %d at Close, want the one queued tick", k.Pending())
	}
	if err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := M.Snapshots.Value() - before; n != 3 {
		t.Fatalf("%d snapshots after Close", n-3)
	}
	if k.Pending() != 0 {
		t.Fatalf("the closed manager's tick re-armed: %d pending", k.Pending())
	}
}

func TestRestoreCostGrowsWithStaleness(t *testing.T) {
	m, _, k := rig(t)
	c0, ok := m.RestoreCost("str.track")
	if !ok {
		t.Fatal("no cost")
	}
	m.Close() // freeze snapshots; only staleness moves
	if err := k.RunFor(100 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	c1, _ := m.RestoreCost("str.track")
	if c1 <= c0 {
		t.Fatalf("cost did not grow with staleness: %v -> %v", c0, c1)
	}
	// Redo term: 100s staleness at default 0.02 adds ~2s.
	if d := c1 - c0; d < 1900*time.Millisecond || d > 2100*time.Millisecond {
		t.Fatalf("staleness delta %v, want ~2s", d)
	}
}
