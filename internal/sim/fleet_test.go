package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// pingShard is a minimal fleet member for exercising the coordinator: each
// shard periodically sends a numbered ping to a peer shard and records
// every delivery it receives, mixing in its kernel RNG so any divergence
// in event order corrupts the transcript visibly.
type pingShard struct {
	*Kernel
	idx     int
	peer    *pingShard
	latency time.Duration
	out     []Parcel
	log     []string
	sent    int
}

func newPingShard(idx int, seed int64, latency time.Duration) *pingShard {
	return &pingShard{Kernel: New(seed), idx: idx, latency: latency}
}

// recv returns a parcel's Deliver: log msg on s when it arrives.
func (s *pingShard) recv(msg string) func() {
	return func() {
		s.log = append(s.log, fmt.Sprintf("%s recv %s r=%d",
			s.Now().Format("15:04:05.000"), msg, s.Rand().Intn(1000)))
	}
}

// start schedules a periodic ping to the peer, addressed to shard dest
// (normally peer.idx; a test may name a shard the fleet lacks).
func (s *pingShard) start(period time.Duration, count, dest int) {
	var tick func()
	tick = func() {
		if s.sent >= count {
			return
		}
		s.sent++
		msg := fmt.Sprintf("ping-%d-%d", s.idx, s.sent)
		s.out = append(s.out, Parcel{To: dest, At: s.Now().Add(s.latency), Deliver: s.peer.recv(msg)})
		s.log = append(s.log, fmt.Sprintf("%s sent %s r=%d",
			s.Now().Format("15:04:05.000"), msg, s.Rand().Intn(1000)))
		s.AfterFunc(period, tick)
	}
	s.AfterFunc(0, tick)
}

// newPingFleet builds a fleet over the shards' kernels whose collect
// drains each shard's outbox in send order.
func newPingFleet(cfg FleetConfig, pings ...*pingShard) *Fleet {
	kernels := make([]*Kernel, len(pings))
	for i, ps := range pings {
		kernels[i] = ps.Kernel
	}
	return NewFleet(cfg, kernels, func(shard int, dst []Parcel) []Parcel {
		ps := pings[shard]
		dst = append(dst, ps.out...)
		ps.out = ps.out[:0]
		return dst
	})
}

// transcript concatenates the per-shard logs.
func transcript(pings []*pingShard) string {
	var sb strings.Builder
	for i, ps := range pings {
		fmt.Fprintf(&sb, "== shard %d ==\n", i)
		for _, line := range ps.log {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// runPingFleet builds an n-shard ring, runs it for horizon, and returns the
// concatenated per-shard transcripts plus the fleet for counter checks.
func runPingFleet(t *testing.T, n, workers int, seed int64) (string, *Fleet) {
	t.Helper()
	const (
		latency = 250 * time.Millisecond
		epoch   = 250 * time.Millisecond
	)
	pings := make([]*pingShard, n)
	for i := range pings {
		pings[i] = newPingShard(i, seed+int64(i)*101, latency)
	}
	for i, ps := range pings {
		ps.peer = pings[(i+1)%n]
		ps.start(400*time.Millisecond, 25, ps.peer.idx)
	}
	fl := newPingFleet(FleetConfig{Epoch: epoch, Workers: workers}, pings...)
	if err := fl.RunUntil(pings[0].Now().Add(30 * time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	return transcript(pings), fl
}

// TestFleetDeterministicAcrossWorkers is the tentpole invariant: the same
// constellation and seed folds byte-identically regardless of worker count.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	ref, refFleet := runPingFleet(t, 6, 1, 42)
	if refFleet.Parcels() == 0 {
		t.Fatal("no parcels exchanged; test is vacuous")
	}
	for _, workers := range []int{2, 4, 16} {
		got, fl := runPingFleet(t, 6, workers, 42)
		if got != ref {
			t.Fatalf("workers=%d transcript differs from sequential reference:\n--- want ---\n%s\n--- got ---\n%s", workers, ref, got)
		}
		if fl.Parcels() != refFleet.Parcels() {
			t.Fatalf("workers=%d parcels=%d, want %d", workers, fl.Parcels(), refFleet.Parcels())
		}
		if fl.Epochs() != refFleet.Epochs() {
			t.Fatalf("workers=%d epochs=%d, want %d", workers, fl.Epochs(), refFleet.Epochs())
		}
	}
}

// TestFleetSeedSensitivity guards against the transcript being constant.
func TestFleetSeedSensitivity(t *testing.T) {
	a, _ := runPingFleet(t, 4, 1, 1)
	b, _ := runPingFleet(t, 4, 1, 2)
	if a == b {
		t.Fatal("different seeds produced identical transcripts")
	}
}

// TestFleetLookaheadViolation: a link shorter than the epoch must be
// rejected with ErrLookahead, not silently accepted.
func TestFleetLookaheadViolation(t *testing.T) {
	const epoch = 500 * time.Millisecond
	a := newPingShard(0, 7, 100*time.Millisecond) // latency < epoch
	b := newPingShard(1, 8, 100*time.Millisecond)
	a.peer = b
	a.start(time.Second, 5, b.idx)
	fl := newPingFleet(FleetConfig{Epoch: epoch, Workers: 1}, a, b)
	err := fl.RunUntil(a.Now().Add(5 * time.Second))
	if !errors.Is(err, ErrLookahead) {
		t.Fatalf("err = %v, want ErrLookahead", err)
	}
}

// TestFleetBadDestination: a parcel addressed outside the fleet is a
// deterministic error, not a panic or a drop.
func TestFleetBadDestination(t *testing.T) {
	a := newPingShard(0, 7, time.Second)
	b := newPingShard(1, 8, time.Second)
	a.peer = b
	a.start(time.Second, 3, 5) // shard 5 does not exist
	fl := newPingFleet(FleetConfig{Epoch: time.Second, Workers: 1}, a, b)
	err := fl.RunUntil(a.Now().Add(5 * time.Second))
	if err == nil || !strings.Contains(err.Error(), "unknown shard") {
		t.Fatalf("err = %v, want unknown-shard error", err)
	}
}

// TestFleetConfigValidation: construction panics on programmer error.
func TestFleetConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no shards", func() {
		NewFleet(FleetConfig{Epoch: time.Second}, nil, nil)
	})
	mustPanic("zero epoch", func() {
		NewFleet(FleetConfig{}, []*Kernel{New(1)}, nil)
	})
}

// TestFleetSameInstantSourceOrder: parcels from shards 0 and 1 due at
// the same instant on shard 2 run there in source-shard order, whatever
// order the shards reached the barrier in. The sender on shard 1 fires
// first in virtual time, so only the exchange order can put shard 0's
// parcels ahead of it.
func TestFleetSameInstantSourceOrder(t *testing.T) {
	const epoch = 250 * time.Millisecond
	run := func(workers int) string {
		pings := []*pingShard{
			newPingShard(0, 11, epoch),
			newPingShard(1, 12, epoch),
			newPingShard(2, 13, epoch),
		}
		dst := pings[2]
		due := dst.Now().Add(2 * epoch)
		for i, delay := range []time.Duration{100 * time.Millisecond, 20 * time.Millisecond} {
			src := pings[i]
			src.AfterFunc(delay, func() {
				for n := 1; n <= 2; n++ {
					msg := fmt.Sprintf("from-%d-%d", src.idx, n)
					src.out = append(src.out, Parcel{To: dst.idx, At: due, Deliver: dst.recv(msg)})
				}
			})
		}
		fl := newPingFleet(FleetConfig{Epoch: epoch, Workers: workers}, pings...)
		if err := fl.RunUntil(dst.Now().Add(time.Second)); err != nil {
			t.Fatalf("workers=%d RunUntil: %v", workers, err)
		}
		if fl.Parcels() != 4 {
			t.Fatalf("workers=%d parcels=%d, want 4", workers, fl.Parcels())
		}
		return transcript(pings)
	}
	ref := run(1)
	var order []string
	for _, line := range strings.Split(ref, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "recv" {
			if f[0] != "00:00:00.500" {
				t.Fatalf("parcel ran at %s, want 00:00:00.500:\n%s", f[0], ref)
			}
			order = append(order, f[2])
		}
	}
	if got, want := strings.Join(order, " "), "from-0-1 from-0-2 from-1-1 from-1-2"; got != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
	if got := run(4); got != ref {
		t.Fatalf("workers=4 transcript differs:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", ref, got)
	}
}
