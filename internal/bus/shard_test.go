package bus

import (
	"fmt"
	"testing"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestShardForDeterminism pins the address-hash placement: stable across
// calls, pinned to the FNV-1a constants (so client and broker builds can
// never disagree), collapsing to shard 0 for an unsharded fabric, and
// non-degenerate — a realistic component-name population must not all
// land on one shard.
func TestShardForDeterminism(t *testing.T) {
	names := []string{"fd", "rec", "ses", "rtu", "pms", "fes", "ctl", "faultgen"}
	for _, n := range names {
		if ShardFor(n, 1) != 0 {
			t.Fatalf("ShardFor(%q, 1) != 0", n)
		}
		for _, shards := range []int{2, 3, 4, 8} {
			a, b := ShardFor(n, shards), ShardFor(n, shards)
			if a != b {
				t.Fatalf("ShardFor(%q, %d) unstable: %d then %d", n, shards, a, b)
			}
			if a < 0 || a >= shards {
				t.Fatalf("ShardFor(%q, %d) = %d out of range", n, shards, a)
			}
		}
	}
	// Golden FNV-1a values: these may never change, or mixed-version
	// client/broker pairs would route the same address differently.
	if h := fnv1a32(""); h != 2166136261 {
		t.Fatalf("fnv1a32(\"\") = %d, want offset basis 2166136261", h)
	}
	if h := fnv1a32("a"); h != 0xe40c292c {
		t.Fatalf("fnv1a32(\"a\") = %#x, want 0xe40c292c", h)
	}
	// Distribution sanity over a wider population.
	counts := make([]int, 4)
	for i := 0; i < 256; i++ {
		counts[ShardFor(fmt.Sprintf("cell-%d", i), 4)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got none of 256 addresses: %v", s, counts)
		}
	}
}

// shardName finds a name with the given prefix hashing to shard want of
// an n-shard fabric.
func shardName(t *testing.T, prefix string, want, n int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if ShardFor(name, n) == want {
			return name
		}
	}
	t.Fatalf("no %s name hashes to shard %d/%d", prefix, want, n)
	return ""
}

// TestShardedRoundTrip drives a frame through each shard of a two-shard
// fabric: destinations hashing to different shards are both reachable
// through one ShardedClient, and each frame travels its own shard's
// broker (asserted via the per-shard routed counters).
func TestShardedRoundTrip(t *testing.T) {
	sb, err := ListenSharded("127.0.0.1:0", 2, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	n0 := shardName(t, "ses", 0, 2)
	n1 := shardName(t, "rtu", 1, 2)
	var got0, got1 collector
	r0, err := DialSharded(sb.Addrs(), n0, ClientConfig{}, got0.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := DialSharded(sb.Addrs(), n1, ClientConfig{}, got1.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	send, err := DialAuto(sb.AddrList(), "fd", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if _, ok := send.(*ShardedClient); !ok {
		t.Fatalf("DialAuto(%q) returned %T, want *ShardedClient", sb.AddrList(), send)
	}
	waitFor(t, "registration on both shards", func() bool {
		return len(sb.Shard(0).ClientNames()) == 3 && len(sb.Shard(1).ClientNames()) == 3
	})

	routed0 := M.TCPShardFrames.With("0").Value()
	routed1 := M.TCPShardFrames.With("1").Value()
	send.Send(xmlcmd.NewPing("fd", n0, 1, 10))
	send.Send(xmlcmd.NewPing("fd", n1, 2, 11))
	waitFor(t, "cross-shard delivery", func() bool { return got0.count() == 1 && got1.count() == 1 })
	if m := got0.last(); m.Ping.Nonce != 10 {
		t.Fatalf("shard-0 dest got nonce %d", m.Ping.Nonce)
	}
	if m := got1.last(); m.Ping.Nonce != 11 {
		t.Fatalf("shard-1 dest got nonce %d", m.Ping.Nonce)
	}
	if d := M.TCPShardFrames.With("0").Value() - routed0; d != 1 {
		t.Fatalf("shard 0 routed %d frames, want exactly 1", d)
	}
	if d := M.TCPShardFrames.With("1").Value() - routed1; d != 1 {
		t.Fatalf("shard 1 routed %d frames, want exactly 1", d)
	}
}

// TestShardKillIsolation is the acceptance test for the fabric's blast
// radius: killing one shard must degrade only the addresses hashing to
// it. Traffic to the surviving shard flows throughout the outage, and
// once the dead shard restarts, parked frames for its addresses drain in
// order — bus recovery by parts, with no whole-fabric restart.
func TestShardKillIsolation(t *testing.T) {
	sb, err := ListenSharded("127.0.0.1:0", 2, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	n0 := shardName(t, "ses", 0, 2)
	n1 := shardName(t, "rtu", 1, 2)
	var got0, got1 collector
	r0, err := DialSharded(sb.Addrs(), n0, ClientConfig{}, got0.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := DialSharded(sb.Addrs(), n1, ClientConfig{}, got1.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	send, err := DialSharded(sb.Addrs(), "fd", ClientConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	waitFor(t, "registration on both shards", func() bool {
		return len(sb.Shard(0).ClientNames()) == 3 && len(sb.Shard(1).ClientNames()) == 3
	})

	if err := sb.KillShard(0); err != nil {
		t.Fatal(err)
	}
	// The sender must notice shard 0 is gone so its frames park instead
	// of dying with the half-closed connection.
	waitFor(t, "sender to notice the dead shard", func() bool {
		c := send.Client(0)
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.bw == nil
	})

	// During the outage: shard-1 traffic flows, shard-0 traffic parks.
	const during = 3
	for i := uint64(0); i < during; i++ {
		send.Send(xmlcmd.NewPing("fd", n0, i, 100+i))
		send.Send(xmlcmd.NewPing("fd", n1, i, 200+i))
	}
	waitFor(t, "surviving shard delivery during outage", func() bool { return got1.count() == during })
	if got0.count() != 0 {
		t.Fatalf("dead shard delivered %d frames during its outage", got0.count())
	}

	// Restart the shard on its pinned address: receivers re-register,
	// the sender's parked frames drain in order.
	if err := sb.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if sb.Shard(0) == nil {
		t.Fatal("restarted shard not alive")
	}
	waitFor(t, "re-registration on restarted shard", func() bool {
		b := sb.Shard(0)
		return b != nil && len(b.ClientNames()) == 3
	})
	// The destination may have re-registered after the sender flushed its
	// parked frames (independent backoffs), losing the parked batch to
	// route drops; a fresh send after both are back must always arrive.
	send.Send(xmlcmd.NewPing("fd", n0, during, 100+during))
	waitFor(t, "post-restart delivery on healed shard", func() bool { return got0.count() >= 1 })
	got0.mu.Lock()
	defer got0.mu.Unlock()
	for i := 1; i < len(got0.msgs); i++ {
		if got0.msgs[i].Ping.Nonce <= got0.msgs[i-1].Ping.Nonce {
			t.Fatalf("healed shard delivered out of order: %d after %d",
				got0.msgs[i].Ping.Nonce, got0.msgs[i-1].Ping.Nonce)
		}
	}
	// Throughout all of this, the surviving shard was never disturbed.
	if got1.count() != during {
		t.Fatalf("surviving shard frame count moved: %d, want %d", got1.count(), during)
	}
}

// TestShardedClientFlushOnClose: frames queued on every shard's
// connection reach the wire when the multiplexed client closes — the
// one-shot-tool pattern (faultgen) over a sharded fabric.
func TestShardedClientFlushOnClose(t *testing.T) {
	sb, err := ListenSharded("127.0.0.1:0", 2, BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	n0 := shardName(t, "ses", 0, 2)
	n1 := shardName(t, "rtu", 1, 2)
	var got0, got1 collector
	r0, err := DialSharded(sb.Addrs(), n0, ClientConfig{}, got0.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := DialSharded(sb.Addrs(), n1, ClientConfig{}, got1.on)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	send, err := DialSharded(sb.Addrs(), "tool", ClientConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration on both shards", func() bool {
		return len(sb.Shard(0).ClientNames()) == 3 && len(sb.Shard(1).ClientNames()) == 3
	})
	// Hold every shard connection's writes until Close has begun, which
	// proves Close itself drains the queues rather than the writer
	// happening to flush first.
	release := make(chan struct{})
	for i := range 2 {
		c := send.Client(i)
		c.mu.Lock()
		live := c.bw
		c.bw = NewBatchWriter(heldWriter{c.conn, release}, Block)
		c.mu.Unlock()
		_ = live.Close()
	}

	send.Send(xmlcmd.NewPing("tool", n0, 1, 31))
	send.Send(xmlcmd.NewPing("tool", n1, 2, 32))
	closed := make(chan struct{})
	go func() {
		send.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		c := send.Client(0)
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed
	})
	close(release)
	<-closed
	waitFor(t, "flush-on-close delivery", func() bool { return got0.count() == 1 && got1.count() == 1 })
}
