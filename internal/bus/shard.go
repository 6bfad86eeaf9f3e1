package bus

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file composes TCPBroker instances into a sharded fabric. Each
// shard is an independent broker owning a slice of the bus address space;
// a message's shard is a pure function of its destination address, so
// clients and brokers agree on placement with no routing table, no
// coordination traffic, and no shared state between shards. Killing one
// shard takes down only the addresses that hash to it — the recursive-
// restart property applied to the bus itself: the fabric restarts by
// parts, and the blast radius of a shard failure is its address slice,
// not the whole message plane.

// fnv1a32 is the 32-bit FNV-1a hash. Inlined rather than hash/fnv so the
// per-send shard lookup allocates nothing and both sides of the wire are
// pinned to the same constants forever (changing them would strand
// in-flight deployments on disagreeing placements).
func fnv1a32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// ShardFor maps a bus address to its broker shard. Deterministic and
// identical on client and broker side — placement is the hash, there is
// no table to distribute or invalidate. n <= 1 collapses to shard 0 (the
// unsharded fabric).
func ShardFor(addr string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a32(addr) % uint32(n))
}

// Conn is the client-side bus handle shared by the single-broker
// TCPClient and the multiplexed ShardedClient, so components and tools
// work against either fabric shape.
type Conn interface {
	// Send queues a frame for delivery. Fail-silent, like the fabric.
	Send(m *xmlcmd.Message)
	// Close flushes queued frames and tears the connection(s) down.
	Close()
}

var (
	_ Conn = (*TCPClient)(nil)
	_ Conn = (*ShardedClient)(nil)
)

// ShardedBroker runs n independent broker shards. Shard addresses are
// pinned at listen time and survive KillShard/RestartShard, so clients
// reconnect to a restarted shard at the address they already know.
type ShardedBroker struct {
	addrs []string

	mu     sync.Mutex
	shards []*TCPBroker // nil entry = shard currently down
}

// ListenSharded starts n broker shards at addr. Port 0 gives every shard
// its own ephemeral port; a fixed port P assigns consecutive ports
// P, P+1, …, P+n-1, so `-listen 127.0.0.1:7707 -bus-shards 2` yields the
// predictable pair 7707,7708. Each shard labels its metrics with its own
// index; that index is a shard's only setting, so the BrokerConfig argument
// carries nothing a sharded fabric uses.
func ListenSharded(addr string, n int, _ BrokerConfig) (*ShardedBroker, error) {
	if n < 1 {
		return nil, fmt.Errorf("bus: sharded fabric needs >= 1 shard, got %d", n)
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bus: sharded listen address: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bus: sharded listen address %q: %w", addr, err)
	}
	sb := &ShardedBroker{
		addrs:  make([]string, n),
		shards: make([]*TCPBroker, n),
	}
	for i := 0; i < n; i++ {
		shardAddr := addr
		if port != 0 {
			shardAddr = net.JoinHostPort(host, strconv.Itoa(port+i))
		}
		b, err := ListenBrokerConfig(shardAddr, BrokerConfig{Shard: i})
		if err != nil {
			_ = sb.Close()
			return nil, err
		}
		sb.shards[i] = b
		sb.addrs[i] = b.Addr()
	}
	return sb, nil
}

// Addrs returns every shard's pinned address, in shard order.
func (sb *ShardedBroker) Addrs() []string {
	return append([]string(nil), sb.addrs...)
}

// AddrList returns the fabric's addresses as one comma-separated string,
// the form DialAuto and the -bus flags accept.
func (sb *ShardedBroker) AddrList() string { return strings.Join(sb.addrs, ",") }

// KillShard stops shard i, disconnecting its clients. The shard's address
// stays reserved for RestartShard. Idempotent: killing a dead shard is a
// no-op, mirroring how the supervisor treats kill of a dead cell.
func (sb *ShardedBroker) KillShard(i int) error {
	if i < 0 || i >= len(sb.addrs) {
		return fmt.Errorf("bus: no shard %d in a %d-shard fabric", i, len(sb.addrs))
	}
	sb.mu.Lock()
	b := sb.shards[i]
	sb.shards[i] = nil
	sb.mu.Unlock()
	if b == nil {
		return nil
	}
	return b.Close()
}

// RestartShard brings shard i back on its pinned address. Clients that
// lost the shard reconnect on their own backoff and flush their parked
// frames; nothing else participates in the recovery.
func (sb *ShardedBroker) RestartShard(i int) error {
	if i < 0 || i >= len(sb.addrs) {
		return fmt.Errorf("bus: no shard %d in a %d-shard fabric", i, len(sb.addrs))
	}
	sb.mu.Lock()
	if sb.shards[i] != nil {
		sb.mu.Unlock()
		return nil // already serving
	}
	sb.mu.Unlock()
	// Listen outside the lock; binding a pinned port can take time when
	// the dead shard's socket lingers in TIME_WAIT.
	b, err := ListenBrokerConfig(sb.addrs[i], BrokerConfig{Shard: i})
	if err != nil {
		return err
	}
	sb.mu.Lock()
	if sb.shards[i] != nil { // lost a restart race; keep the incumbent
		sb.mu.Unlock()
		return b.Close()
	}
	sb.shards[i] = b
	sb.mu.Unlock()
	return nil
}

// Shard returns shard i's live broker, or nil while it is down.
func (sb *ShardedBroker) Shard(i int) *TCPBroker {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if i < 0 || i >= len(sb.shards) {
		return nil
	}
	return sb.shards[i]
}

// Close stops every live shard.
func (sb *ShardedBroker) Close() error {
	var first error
	for i := range sb.addrs {
		if err := sb.KillShard(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardedClient multiplexes one TCPClient per shard behind the Conn
// interface: Send hashes the destination to pick the connection, so a
// component talks to an n-shard fabric exactly as it talked to one
// broker. Each underlying client reconnects to its own shard
// independently — one shard's outage parks only that shard's traffic.
type ShardedClient struct {
	clients []*TCPClient
}

// DialSharded connects name to every shard of the fabric. onMsg receives
// inbound frames from all shards; frames for one destination arrive on
// exactly one shard (the hash), so per-peer ordering matches the
// single-broker client.
func DialSharded(addrs []string, name string, _ ClientConfig, onMsg func(*xmlcmd.Message)) (*ShardedClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bus: sharded client needs >= 1 address")
	}
	sc := &ShardedClient{clients: make([]*TCPClient, len(addrs))}
	for i, addr := range addrs {
		c, err := DialBus(addr, name, onMsg)
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.clients[i] = c
	}
	return sc, nil
}

// DialAuto dials a bus address spec: a single "host:port" yields a plain
// TCPClient, a comma-separated list yields a ShardedClient over those
// shards. Tools (mercuryd -bus, faultgen) accept either transparently.
func DialAuto(spec, name string, onMsg func(*xmlcmd.Message)) (Conn, error) {
	if !strings.Contains(spec, ",") {
		return DialBus(spec, name, onMsg)
	}
	parts := strings.Split(spec, ",")
	addrs := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	return DialSharded(addrs, name, ClientConfig{}, onMsg)
}

// Send queues m on the shard its destination hashes to.
func (sc *ShardedClient) Send(m *xmlcmd.Message) {
	sc.clients[ShardFor(m.To, len(sc.clients))].Send(m)
}

// Disconnected reports whether any shard's connection is down, like
// TCPClient.Disconnected: sends routed over it are parking.
func (sc *ShardedClient) Disconnected() bool {
	for _, c := range sc.clients {
		if c.Disconnected() {
			return true
		}
	}
	return false
}

// Client returns the underlying per-shard client (for tests/ops).
func (sc *ShardedClient) Client(i int) *TCPClient { return sc.clients[i] }

// Close tears down every per-shard connection, flushing live queues.
func (sc *ShardedClient) Close() {
	for _, c := range sc.clients {
		if c != nil {
			c.Close()
		}
	}
}
