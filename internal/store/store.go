// Package store is the crash-only state store backing microrebootable
// components. Subcomponents keep their session/track state here — versioned,
// leased entries on the runtime clock — so a microreboot is "drop the logic,
// reattach to the state" instead of a full process restart with resync.
//
// The crash-only contract: state lives exactly as long as some live
// component renews its lease. A component that dies stops renewing; once the
// lease deadline passes, the entry is dead — Acquire by anyone succeeds,
// Get reports absence, and the deterministic sweeper reclaims the bytes.
// There is no shutdown path and no cleanup protocol to get wrong: the only
// way state disappears is the same way it disappears in a crash.
//
// The hot path (Lease.Get / Lease.Put / Cell.Load / Cell.Save) is
// allocation-free in steady state: values are copied into per-entry buffers
// that are reused across writes, and reads return borrowed views.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
)

var (
	// ErrLeaseHeld is returned by Acquire when another owner holds a live
	// lease on the key.
	ErrLeaseHeld = errors.New("store: lease held by another owner")
	// ErrLeaseLost is returned by lease operations after the lease expired
	// or was taken over by another owner.
	ErrLeaseLost = errors.New("store: lease lost")
)

// Options configures a Store.
type Options struct {
	// SweepPeriod is the interval of the deterministic expired-entry
	// sweeper. Zero disables the background sweeper; expired entries are
	// then reclaimed only by explicit Sweep calls (they are treated as
	// absent either way).
	SweepPeriod time.Duration
}

// entry is one versioned, leased value. The value buffer is reused across
// writes so steady-state puts allocate nothing.
type entry struct {
	val      []byte
	version  uint64
	owner    string
	deadline time.Time // lease expiry; entry is dead once this passes
}

// Store is a crash-only, versioned, leased key-value store. It is
// mutex-protected: the sim runtime drives it from one dispatch context, but
// rt live nodes touch it from component callbacks under the race detector.
type Store struct {
	clk clock.Clock

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int  // total live value bytes
	closed  bool // Close ran: the sweeper stops at its next tick
	sweeper sweepTick
}

// New builds a store on the given clock and, if opts.SweepPeriod > 0,
// starts the deterministic expired-entry sweeper on it.
func New(clk clock.Clock, opts Options) *Store {
	s := &Store{clk: clk, entries: make(map[string]*entry)}
	if opts.SweepPeriod > 0 {
		s.sweeper = sweepTick{s: s, period: opts.SweepPeriod}
		clk.Schedule(opts.SweepPeriod, &s.sweeper)
	}
	return s
}

// sweepTick is the sweeper: an event that re-arms itself every period
// until the store is closed.
type sweepTick struct {
	s      *Store
	period time.Duration
}

// Fire re-arms before it sweeps, so the next tick is queued ahead of
// anything the sweep schedules.
func (t *sweepTick) Fire() {
	s := t.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.clk.Schedule(t.period, t)
	s.mu.Unlock()
	s.Sweep()
}

// Close stops the background sweeper: a tick already queued fires and
// does nothing. The store itself needs no shutdown — that is the point.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// live reports whether e holds an unexpired lease at time now.
func live(e *entry, now time.Time) bool {
	return e.owner != "" && e.deadline.After(now)
}

// Acquire takes (or retakes) the lease on key for owner with the given TTL.
// It succeeds when the key is unleased, expired, or already held by the
// same owner — the last case is the microreboot path: a rebooted
// subcomponent reattaches to its own surviving state. A live lease held by
// a different owner yields ErrLeaseHeld.
func (s *Store) Acquire(key, owner string, ttl time.Duration) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	e := s.entries[key]
	if e == nil {
		e = &entry{}
		s.entries[key] = e
	} else if live(e, now) && e.owner != owner {
		M.LeaseConflicts.Inc()
		return nil, fmt.Errorf("%w: %q holds %q", ErrLeaseHeld, e.owner, key)
	} else if !live(e, now) && e.version > 0 {
		// The previous holder stopped renewing: the state died with it.
		s.expireLocked(key, e)
		e = &entry{}
		s.entries[key] = e
	}
	e.owner = owner
	e.deadline = now.Add(ttl)
	M.LeaseAcquires.Inc()
	return &Lease{s: s, key: key, owner: owner}, nil
}

// expireLocked drops a dead entry's value, keeping metrics honest.
// Callers hold s.mu.
func (s *Store) expireLocked(key string, e *entry) {
	s.bytes -= len(e.val)
	delete(s.entries, key)
	M.LeaseExpirations.Inc()
}

// Sweep reclaims every expired entry, in deterministic (sorted-key) order,
// and returns how many were removed.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	var dead []string
	for k, e := range s.entries {
		if !live(e, now) {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		s.expireLocked(k, s.entries[k])
	}
	M.Sweeps.Inc()
	return len(dead)
}

// Get returns a borrowed view of the value under key, with its version.
// Expired entries read as absent. The returned slice is owned by the store
// and valid only until the next Put on the same key — copy to retain.
func (s *Store) Get(key string) ([]byte, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	M.Gets.Inc()
	e := s.entries[key]
	if e == nil || !live(e, s.clk.Now()) || e.version == 0 {
		M.Misses.Inc()
		return nil, 0, false
	}
	return e.val, e.version, true
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	n := 0
	for _, e := range s.entries {
		if live(e, now) {
			n++
		}
	}
	return n
}

// Bytes returns the total live value bytes held.
func (s *Store) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Lease is a handle on one leased key. All value access goes through a
// lease: state belongs to whoever keeps renewing it.
type Lease struct {
	s     *Store
	key   string
	owner string
}

// Key returns the leased key.
func (l *Lease) Key() string { return l.key }

// check returns the entry if the lease is still ours and live.
// Callers hold l.s.mu.
func (l *Lease) check(now time.Time) (*entry, error) {
	e := l.s.entries[l.key]
	if e == nil || e.owner != l.owner || !e.deadline.After(now) {
		return nil, ErrLeaseLost
	}
	return e, nil
}

// Put replaces the value under the lease, bumping the version. The bytes
// are copied into a buffer reused across writes — zero allocations once the
// buffer has grown to the working size.
func (l *Lease) Put(val []byte) (uint64, error) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	e, err := l.check(l.s.clk.Now())
	if err != nil {
		return 0, err
	}
	l.s.bytes += len(val) - len(e.val)
	e.val = append(e.val[:0], val...)
	e.version++
	M.Puts.Inc()
	M.ValueBytes.ObserveValue(uint64(len(val)))
	return e.version, nil
}

// Get returns a borrowed view of the leased value and its version, or
// ok=false when nothing has been Put yet. Errors (lease lost) also read as
// ok=false: to the reattaching component, lost state and absent state are
// the same thing.
func (l *Lease) Get() ([]byte, uint64, bool) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	M.Gets.Inc()
	e, err := l.check(l.s.clk.Now())
	if err != nil || e.version == 0 {
		M.Misses.Inc()
		return nil, 0, false
	}
	return e.val, e.version, true
}

// Version returns the current version under the lease (0 before any Put or
// after the lease is lost).
func (l *Lease) Version() uint64 {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	e, err := l.check(l.s.clk.Now())
	if err != nil {
		return 0
	}
	return e.version
}

// Renew pushes the lease deadline to now+ttl. A component that stops
// renewing — because it crashed — lets the state die with it.
func (l *Lease) Renew(ttl time.Duration) error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	now := l.s.clk.Now()
	e, err := l.check(now)
	if err != nil {
		return err
	}
	e.deadline = now.Add(ttl)
	M.LeaseRenewals.Inc()
	return nil
}

// Release drops the lease immediately, leaving the entry expired. Nothing
// in the crash-only protocol requires calling it — crashing is equivalent.
func (l *Lease) Release() {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	if e, err := l.check(l.s.clk.Now()); err == nil {
		e.deadline = time.Time{}
	}
}

// ErrNoEntry is returned by Revert for a key with no entry to revert.
var ErrNoEntry = errors.New("store: no entry under key")

// Revert overwrites the value under key with val, bumping the version —
// the checkpoint-restore path. It deliberately bypasses lease ownership:
// the restore is an administrative action by the recovery plane, not a
// component write, and the holder (possibly mid-reboot) keeps its lease.
// Reverting a key with no entry at all fails: checkpoint restore
// resurrects state for components that still exist, it does not create
// orphan entries nobody leases.
func (s *Store) Revert(key string, val []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoEntry, key)
	}
	s.bytes += len(val) - len(e.val)
	e.val = append(e.val[:0], val...)
	e.version++
	M.Reverts.Inc()
	return e.version, nil
}

// --- snapshot ---

// snapMagic versions the snapshot encoding.
const snapMagic = "MSTO1"

// Snapshot encodes every entry — including expired ones not yet swept — in
// deterministic sorted-key order. Byte-identical stores produce
// byte-identical snapshots.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := append([]byte(nil), snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		e := s.entries[k]
		buf = appendString(buf, k)
		buf = appendString(buf, e.owner)
		buf = appendBytes(buf, e.val)
		buf = binary.AppendUvarint(buf, e.version)
		var dl int64
		if !e.deadline.IsZero() {
			dl = e.deadline.UnixNano()
		}
		buf = binary.AppendVarint(buf, dl)
	}
	return buf
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// --- typed cells ---

// Codec encodes and decodes one value type for a Cell. Append writes v onto
// dst and returns the extended slice; Parse reads a value back, reporting
// ok=false on malformed input.
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Parse  func(src []byte) (T, bool)
}

// Cell is a typed view of one leased entry. Save encodes into a scratch
// buffer reused across calls, so steady-state writes allocate nothing.
type Cell[T any] struct {
	lease *Lease
	codec Codec[T]
	buf   []byte
}

// NewCell wraps a lease with a codec.
func NewCell[T any](l *Lease, c Codec[T]) *Cell[T] {
	return &Cell[T]{lease: l, codec: c}
}

// Load decodes the current value, reporting ok=false when the entry is
// empty, the lease is lost, or the bytes do not parse.
func (c *Cell[T]) Load() (T, bool) {
	raw, _, ok := c.lease.Get()
	if !ok {
		var zero T
		return zero, false
	}
	return c.codec.Parse(raw)
}

// Save encodes and stores v under the lease.
func (c *Cell[T]) Save(v T) error {
	c.buf = c.codec.Append(c.buf[:0], v)
	_, err := c.lease.Put(c.buf)
	return err
}

// Lease returns the underlying lease (for Renew/Release).
func (c *Cell[T]) Lease() *Lease { return c.lease }

// Fixed-width scalar helpers for building codecs.

// AppendUint64 appends v big-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// ParseUint64 reads a big-endian uint64 and returns the remainder.
func ParseUint64(src []byte) (uint64, []byte, bool) {
	if len(src) < 8 {
		return 0, nil, false
	}
	return binary.BigEndian.Uint64(src), src[8:], true
}

// AppendInt64 appends v big-endian.
func AppendInt64(dst []byte, v int64) []byte {
	return AppendUint64(dst, uint64(v))
}

// ParseInt64 reads a big-endian int64 and returns the remainder.
func ParseInt64(src []byte) (int64, []byte, bool) {
	u, rest, ok := ParseUint64(src)
	return int64(u), rest, ok
}

// AppendFloat64 appends the IEEE-754 bits of v big-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// ParseFloat64 reads a big-endian float64 and returns the remainder.
func ParseFloat64(src []byte) (float64, []byte, bool) {
	u, rest, ok := ParseUint64(src)
	return math.Float64frombits(u), rest, ok
}

// Int64Codec is the codec for a single int64 (session epochs, ids).
func Int64Codec() Codec[int64] {
	return Codec[int64]{
		Append: AppendInt64,
		Parse: func(src []byte) (int64, bool) {
			v, rest, ok := ParseInt64(src)
			return v, ok && len(rest) == 0
		},
	}
}
