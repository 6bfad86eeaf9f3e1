package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file treats the message bus itself as a restartable cell class:
// the sharded TCP fabric (bus.ShardedBroker) is killed and restarted one
// shard at a time, against live clients, and the campaign measures the
// two properties the paper's recursive-restart argument predicts for a
// partitioned bus:
//
//   - isolation: killing shard k degrades only the addresses hashing to
//     k — traffic on every surviving shard keeps flowing, mid-outage,
//     with nothing delivered to the dead shard's addresses;
//   - recovery by parts: restarting one shard (clients reconnect on
//     their own backoff, no coordination) is compared with restarting
//     the whole fabric, the bus analogue of a subtree restart vs
//     restarting the entire station.
//
// Unlike the simulated campaigns this one runs on the real wire: real
// listeners, real reconnect backoff, wall-clock recovery times. The
// structural counts (delivered/sent, dead-shard deliveries) are exact;
// the durations carry scheduler noise and are reported as measurements,
// not goldens.

// shardProbeInterval paces the reachability probes that time recovery.
const shardProbeInterval = 5 * time.Millisecond

// ShardChaosConfig parameterises the broker-shard kill/recover campaign.
type ShardChaosConfig struct {
	// Shards is the fabric width; every shard is killed once, in order.
	Shards int
	// DestsPerShard is how many receiver addresses are pinned to each
	// shard (found by hashing candidate names).
	DestsPerShard int
	// FramesPerPhase is how many frames each destination is sent during
	// every outage phase.
	FramesPerPhase int
	// PhaseTimeout bounds every wait (delivery settle, recovery probe).
	PhaseTimeout time.Duration
}

// DefaultShardChaosConfig is the EXPERIMENTS.md campaign shape.
func DefaultShardChaosConfig() ShardChaosConfig {
	return ShardChaosConfig{
		Shards:         2,
		DestsPerShard:  2,
		FramesPerPhase: 5,
		PhaseTimeout:   30 * time.Second,
	}
}

func (c ShardChaosConfig) withDefaults() ShardChaosConfig {
	d := DefaultShardChaosConfig()
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.DestsPerShard <= 0 {
		c.DestsPerShard = d.DestsPerShard
	}
	if c.FramesPerPhase <= 0 {
		c.FramesPerPhase = d.FramesPerPhase
	}
	if c.PhaseTimeout <= 0 {
		c.PhaseTimeout = d.PhaseTimeout
	}
	return c
}

// ShardChaosRound is one kill→observe→restart cycle.
type ShardChaosRound struct {
	// Killed is the shard taken down this round.
	Killed int `json:"killed"`
	// SurvivingSent/SurvivingDelivered count frames sent to destinations
	// on live shards during the outage and how many arrived. Isolation
	// holds iff they are equal.
	SurvivingSent      int `json:"surviving_sent"`
	SurvivingDelivered int `json:"surviving_delivered"`
	// DeadDelivered counts frames that reached the killed shard's
	// destinations while it was down. Must be zero: a dead shard's
	// address slice is dark, not rerouted.
	DeadDelivered int `json:"dead_delivered"`
	// Recovery is restart → every killed-shard destination reachable
	// again (clients reconnected, re-registered, delivering).
	Recovery time.Duration `json:"recovery_s"`
}

// ShardChaosResult aggregates the campaign.
type ShardChaosResult struct {
	Config ShardChaosConfig
	Rounds []ShardChaosRound
	// ShardRecoveryMean averages the per-shard recovery times.
	ShardRecoveryMean time.Duration
	// WholeBusRecovery is the final phase: every shard killed, then the
	// whole fabric restarted — the monolithic-restart baseline.
	WholeBusRecovery time.Duration
}

// Isolated reports whether every round kept its blast radius: all
// surviving-shard traffic delivered, nothing delivered on the dead shard.
func (r *ShardChaosResult) Isolated() bool {
	for _, rd := range r.Rounds {
		if rd.SurvivingDelivered != rd.SurvivingSent || rd.DeadDelivered != 0 {
			return false
		}
	}
	return true
}

// shardDest is one receiver address pinned to a shard, with its delivery
// count.
type shardDest struct {
	name  string
	shard int

	mu    sync.Mutex
	recvd int
}

func (d *shardDest) on(*xmlcmd.Message) {
	d.mu.Lock()
	d.recvd++
	d.mu.Unlock()
}

func (d *shardDest) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recvd
}

// shardDestName finds the i-th candidate name hashing to shard want.
func shardDestName(want, n, i int) (string, error) {
	seen := 0
	for c := 0; c < 100000; c++ {
		name := fmt.Sprintf("cell-%d-%d", want, c)
		if bus.ShardFor(name, n) == want {
			if seen == i {
				return name, nil
			}
			seen++
		}
	}
	return "", fmt.Errorf("experiment: no name hashes to shard %d/%d", want, n)
}

// RunShardChaos runs the campaign: boot an n-shard fabric with
// DestsPerShard receivers pinned to every shard, then kill and recover
// each shard in turn, and finally the whole fabric at once.
func RunShardChaos(cfg ShardChaosConfig) (*ShardChaosResult, error) {
	cfg = cfg.withDefaults()
	sb, err := bus.ListenSharded("127.0.0.1:0", cfg.Shards, bus.BrokerConfig{})
	if err != nil {
		return nil, err
	}
	defer sb.Close()

	// Receivers: each dials only its own shard — its address never routes
	// anywhere else, so one connection is the whole footprint.
	var dests []*shardDest
	var clients []*bus.TCPClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for s := 0; s < cfg.Shards; s++ {
		for i := 0; i < cfg.DestsPerShard; i++ {
			name, err := shardDestName(s, cfg.Shards, i)
			if err != nil {
				return nil, err
			}
			d := &shardDest{name: name, shard: s}
			c, err := bus.DialBus(sb.Addrs()[s], name, d.on)
			if err != nil {
				return nil, err
			}
			dests = append(dests, d)
			clients = append(clients, c)
		}
	}
	sender, err := bus.DialSharded(sb.Addrs(), "shardchaos", bus.ClientConfig{}, nil)
	if err != nil {
		return nil, err
	}
	defer sender.Close()

	// Settle: every destination must be provably reachable before any
	// fault is injected.
	var seq uint64
	probeAll := func(filter func(*shardDest) bool) error {
		marks := make(map[*shardDest]int)
		for _, d := range dests {
			if filter(d) {
				marks[d] = d.count()
			}
		}
		deadline := time.Now().Add(cfg.PhaseTimeout)
		for len(marks) > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("experiment: %d destinations unreachable after %v", len(marks), cfg.PhaseTimeout)
			}
			for d, mark := range marks {
				seq++
				sender.Send(xmlcmd.NewPing("shardchaos", d.name, seq, seq))
				if d.count() > mark {
					delete(marks, d)
				}
			}
			time.Sleep(shardProbeInterval)
		}
		return nil
	}
	all := func(*shardDest) bool { return true }
	if err := probeAll(all); err != nil {
		return nil, err
	}

	res := &ShardChaosResult{Config: cfg}

	// Per-shard rounds: kill shard k, measure isolation, restart, time
	// recovery of its address slice.
	for k := 0; k < cfg.Shards; k++ {
		// Drain stragglers from the previous probe phase so in-flight
		// frames cannot be misattributed to this round's outage window.
		time.Sleep(4 * shardProbeInterval)
		if err := sb.KillShard(k); err != nil {
			return nil, err
		}
		// The sender must observe the outage before the phase traffic, so
		// dead-shard frames park instead of dying with the connection.
		if err := waitDisconnected(sender.Client(k), cfg.PhaseTimeout); err != nil {
			return nil, err
		}

		round := ShardChaosRound{Killed: k}
		before := make([]int, len(dests))
		for i, d := range dests {
			before[i] = d.count()
		}
		for f := 0; f < cfg.FramesPerPhase; f++ {
			for _, d := range dests {
				seq++
				sender.Send(xmlcmd.NewPing("shardchaos", d.name, seq, seq))
				if d.shard != k {
					round.SurvivingSent++
				}
			}
		}
		// Let surviving traffic settle, then read the isolation counts.
		deadline := time.Now().Add(cfg.PhaseTimeout)
		for {
			delivered := 0
			for i, d := range dests {
				if d.shard != k {
					delivered += d.count() - before[i]
				}
			}
			if delivered >= round.SurvivingSent || time.Now().After(deadline) {
				round.SurvivingDelivered = delivered
				break
			}
			time.Sleep(shardProbeInterval)
		}
		for i, d := range dests {
			if d.shard == k {
				round.DeadDelivered += d.count() - before[i]
			}
		}

		restartAt := time.Now()
		if err := sb.RestartShard(k); err != nil {
			return nil, err
		}
		if err := probeAll(func(d *shardDest) bool { return d.shard == k }); err != nil {
			return nil, err
		}
		round.Recovery = time.Since(restartAt)
		res.Rounds = append(res.Rounds, round)
	}
	var sum time.Duration
	for _, rd := range res.Rounds {
		sum += rd.Recovery
	}
	res.ShardRecoveryMean = sum / time.Duration(len(res.Rounds))

	// Whole-bus baseline: every shard down, whole fabric restarted.
	for k := 0; k < cfg.Shards; k++ {
		if err := sb.KillShard(k); err != nil {
			return nil, err
		}
	}
	for k := 0; k < cfg.Shards; k++ {
		if err := waitDisconnected(sender.Client(k), cfg.PhaseTimeout); err != nil {
			return nil, err
		}
	}
	restartAt := time.Now()
	for k := 0; k < cfg.Shards; k++ {
		if err := sb.RestartShard(k); err != nil {
			return nil, err
		}
	}
	if err := probeAll(all); err != nil {
		return nil, err
	}
	res.WholeBusRecovery = time.Since(restartAt)
	return res, nil
}

// waitDisconnected polls until the client has torn down its dead
// connection (sends park instead of racing the half-closed socket).
func waitDisconnected(c *bus.TCPClient, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !c.Disconnected() {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: client never observed the shard outage")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// RenderShardChaos formats the campaign for EXPERIMENTS.md.
func RenderShardChaos(r *ShardChaosResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Broker-shard chaos — %d shards, %d dests/shard, %d frames/dest per outage\n",
		r.Config.Shards, r.Config.DestsPerShard, r.Config.FramesPerPhase)
	fmt.Fprintf(&sb, "%-6s %18s %14s %12s\n", "killed", "surviving-frames", "dead-delivered", "recovery")
	for _, rd := range r.Rounds {
		fmt.Fprintf(&sb, "%-6d %11d/%-6d %14d %12s\n",
			rd.Killed, rd.SurvivingDelivered, rd.SurvivingSent, rd.DeadDelivered,
			rd.Recovery.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "per-shard recovery mean %v; whole-bus restart %v\n",
		r.ShardRecoveryMean.Round(time.Millisecond), r.WholeBusRecovery.Round(time.Millisecond))
	if r.Isolated() {
		sb.WriteString("isolation held: every surviving-shard frame delivered, dead shards dark\n")
	} else {
		sb.WriteString("ISOLATION VIOLATED\n")
	}
	return sb.String()
}
