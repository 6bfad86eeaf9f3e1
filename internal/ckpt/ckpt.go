// Package ckpt maintains periodic checkpoints of externalized component
// state on the crash-only store, and prices restoring them. It is the
// mechanism behind oracle v2's third recovery action: instead of restarting
// a subtree (losing its externalized state's recent writes is never the
// problem — state *corruption* is), the recoverer can revert a component's
// store keys to the last snapshot and then reboot it, trading restore
// latency plus redo work for a shallower restart.
//
// The cost model follows "Asymptotic efficiency of restart and
// checkpointing" (PAPERS.md): a fixed restore floor (process setup), a
// bytes/throughput term (reading the snapshot back), and a redo term
// proportional to snapshot staleness (work since the checkpoint must be
// replayed or re-derived). The periodic snapshot itself is the standing
// overhead the oracle's harm model charges against the action.
//
// Everything runs on the injected clock — snapshots tick deterministically
// inside the simulation, so cost-aware campaigns stay reproducible.
package ckpt

import (
	"fmt"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/store"
)

// Options configures a checkpoint manager.
type Options struct {
	// Interval between periodic snapshots. Default 10s.
	Interval time.Duration

	// Keys maps a component (or dotted subcomponent) to the store keys
	// holding its externalized state. Only mapped components are
	// checkpointable.
	Keys map[string][]string
}

// The restore cost model's calibration.
const (
	// restoreFloor is the fixed latency of any restore (locating the
	// snapshot, quiescing the component).
	restoreFloor = 1200 * time.Millisecond
	// restoreBytesPerSec is the modeled snapshot read-back throughput —
	// deliberately slow, matching the station's late-90s embedded profile.
	restoreBytesPerSec = 64 * 1024
	// redoFactor is seconds of redo work per second of snapshot staleness:
	// state written since the checkpoint must be re-derived after the
	// revert.
	redoFactor = 0.02
)

// snapshot is one checkpointed key value.
type snapshot struct {
	val     []byte
	takenAt time.Time
}

// Manager takes periodic snapshots of the configured store keys and
// restores them on demand. It implements core.CheckpointModel.
type Manager struct {
	clk clock.Clock
	st  *store.Store
	opt Options

	mu        sync.Mutex
	snaps     map[string]snapshot
	onRestore []func(keys []string, takenAt time.Time)
	closed    bool
	tick      snapTick
}

// New builds a manager, takes an immediate first snapshot, and starts the
// periodic snapshots on the injected clock.
func New(clk clock.Clock, st *store.Store, opt Options) *Manager {
	if opt.Interval <= 0 {
		opt.Interval = 10 * time.Second
	}
	m := &Manager{
		clk:   clk,
		st:    st,
		opt:   opt,
		snaps: make(map[string]snapshot),
	}
	m.tick.m = m
	m.Take()
	clk.Schedule(opt.Interval, &m.tick)
	return m
}

// snapTick is the periodic snapshot: an event that re-arms itself every
// Interval until the manager is closed.
type snapTick struct{ m *Manager }

// Fire re-arms before it snapshots, so the next tick is queued ahead of
// anything the snapshot schedules.
func (t *snapTick) Fire() {
	m := t.m
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.clk.Schedule(m.opt.Interval, t)
	m.mu.Unlock()
	m.Take()
}

// OnRestore registers a callback fired after every successful Restore with
// the reverted keys and the (earliest) snapshot time they were reverted
// to. The fault board subscribes here to learn that pre-fault state is
// back in place.
func (m *Manager) OnRestore(fn func(keys []string, takenAt time.Time)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRestore = append(m.onRestore, fn)
}

// Take snapshots every configured key whose value is currently live,
// returning the number captured. Keys whose lease is dead (component mid
// crash) keep their previous snapshot — checkpointing never overwrites a
// good snapshot with absence.
func (m *Manager) Take() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0
	}
	now := m.clk.Now()
	n := 0
	for _, keys := range m.opt.Keys {
		for _, key := range keys {
			val, _, ok := m.st.Get(key)
			if !ok {
				continue
			}
			m.snaps[key] = snapshot{val: append([]byte(nil), val...), takenAt: now}
			M.Snapshots.Inc()
			M.SnapshotBytes.ObserveValue(uint64(len(val)))
			n++
		}
	}
	return n
}

// covered returns the keys and earliest snapshot time for a component,
// ok=false when the component is unmapped or any of its keys lacks a
// snapshot. Caller holds m.mu.
func (m *Manager) covered(component string) (keys []string, oldest time.Time, bytes int, ok bool) {
	keys = m.opt.Keys[component]
	if len(keys) == 0 {
		return nil, time.Time{}, 0, false
	}
	for i, key := range keys {
		s, have := m.snaps[key]
		if !have {
			return nil, time.Time{}, 0, false
		}
		bytes += len(s.val)
		if i == 0 || s.takenAt.Before(oldest) {
			oldest = s.takenAt
		}
	}
	return keys, oldest, bytes, true
}

// cost prices a restore from the covered snapshot set. Caller holds m.mu.
func (m *Manager) cost(oldest time.Time, bytes int) time.Duration {
	age := m.clk.Now().Sub(oldest)
	if age < 0 {
		age = 0
	}
	read := time.Duration(float64(bytes) / restoreBytesPerSec * float64(time.Second))
	redo := time.Duration(redoFactor * float64(age))
	return restoreFloor + read + redo
}

// RestoreCost implements core.CheckpointModel: the modeled latency of
// restoring the component's state right now, ok=false when the component
// has no complete snapshot. A nil Manager has no snapshots, so a station
// without a checkpoint plane can hand its nil *Manager straight to the
// policy.
func (m *Manager) RestoreCost(component string) (time.Duration, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, oldest, bytes, ok := m.covered(component)
	if !ok {
		return 0, false
	}
	return m.cost(oldest, bytes), true
}

// Restore reverts the component's store keys to their last snapshot and
// returns the modeled restore latency the recoverer must pay before
// rebooting. The revert is administrative — it bypasses lease ownership,
// because the owning component is by definition down or corrupt.
func (m *Manager) Restore(component string) (time.Duration, error) {
	m.mu.Lock()
	keys, oldest, bytes, ok := m.covered(component)
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("ckpt: no snapshot covering %q", component)
	}
	for _, key := range keys {
		if _, err := m.st.Revert(key, m.snaps[key].val); err != nil {
			m.mu.Unlock()
			return 0, fmt.Errorf("ckpt: restore %q: %w", component, err)
		}
	}
	lat := m.cost(oldest, bytes)
	subs := make([]func(keys []string, takenAt time.Time), len(m.onRestore))
	copy(subs, m.onRestore)
	m.mu.Unlock()

	M.Restores.Inc()
	M.RestoreSeconds.Observe(lat)
	for _, fn := range subs {
		fn(keys, oldest)
	}
	return lat, nil
}

// RestoreSet restores every component of a restart set that a snapshot
// covers and returns the summed restore latency — the recoverer's
// RECParams.CkptRestore hook. It fails when no member is covered.
func (m *Manager) RestoreSet(set []string) (time.Duration, error) {
	var total time.Duration
	restored := false
	for _, c := range set {
		if lat, err := m.Restore(c); err == nil {
			total += lat
			restored = true
		}
	}
	if !restored {
		return 0, fmt.Errorf("ckpt: no checkpoint covering %v", set)
	}
	return total, nil
}

// Close stops the periodic snapshots: a tick already queued fires and
// takes nothing.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}
