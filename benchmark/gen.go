package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// The load generator: one sender goroutine and one "gate" bus client
// (bus.DialAuto, so one TCP connection per broker shard). Requests are
// the station's real command traffic — tune→rtu (which fans out
// rtu→fedr→pbcom), point→str, radio-tune→fedr — in a seeded order. One
// operation is one command acknowledged to the gate; an operation may
// take several attempts (each a frame with its own sequence number) when
// the gate is configured to resend, as an operator's console does.

const gateName = "gate"

// maxWindow is the largest closed-loop window (the token channel's size).
const maxWindow = 1024

// Pending-slot states (values of pendTable.at): a positive value is the
// instant the attempt was sent (unix ns), the rest are terminal.
const (
	slotFree    = 0
	slotAcked   = -1
	slotExpired = -2
)

// pendTable is the pre-sized in-flight table: slot = seq & mask. Nothing
// on the send or ack path allocates or grows a map. Its size exceeds the
// largest in-flight window by orders of magnitude, so a slot is never
// reused while its previous occupant could still be acknowledged.
type pendTable struct {
	seq   []atomic.Uint64
	at    []atomic.Int64
	first []int64  // instant the operation counts from (sender writes before at)
	mix   []uint32 // which message of the mix the attempt carried
	tries []uint8  // resends already used by the operation
	mask  uint64
}

func newPendTable(bits uint) *pendTable {
	n := 1 << bits
	return &pendTable{seq: make([]atomic.Uint64, n), at: make([]atomic.Int64, n),
		first: make([]int64, n), mix: make([]uint32, n), tries: make([]uint8, n), mask: uint64(n - 1)}
}

// retryItem is an operation waiting to be sent again.
type retryItem struct {
	first int64
	mix   uint32
	tries uint8
}

// gate is the benchmark's bus client plus its request accounting.
type gate struct {
	conn bus.Conn
	pend *pendTable
	mix  []*xmlcmd.Message // seeded request mix, cycled

	// deadline bounds one attempt: without resends an ack later than this
	// fails the operation; with resends the sender gives the attempt up
	// after it and sends the command again, at most resends times.
	deadline time.Duration
	resends  int

	// Ack-side counters (written by the client's read goroutines).
	acked   atomic.Uint64 // operations acknowledged in time
	late    atomic.Uint64 // acknowledged after the deadline (resends == 0): failed
	dup     atomic.Uint64 // a second ack for an already acknowledged seq
	unknown atomic.Uint64 // an ack for a seq never issued
	stale   atomic.Uint64 // an ack for an attempt already given up

	// Sender-side state. Sequence numbers start at 1 and never repeat, so
	// the highest one issued is also the number of frames sent.
	issued    atomic.Uint64
	ops       atomic.Uint64 // operations started
	abandoned atomic.Uint64 // operations given up: no ack after every attempt
	resent    atomic.Uint64 // attempts beyond an operation's first
	oldest    uint64        // lowest seq that may still be pending
	nextMix   uint64
	retryQ    []retryItem
	lastSweep int64

	// mark, when non-zero, asks the ack path to report how long after that
	// instant the next acknowledgement arrives (bus.reconnect_ms).
	mark    atomic.Int64
	markLag atomic.Int64

	lat  []uint32 // operation latencies of the current phase, ns (capped ~4 s)
	latN atomic.Int64

	// Closed-loop window: one token per free slot while windowed is set.
	tokens   chan struct{}
	windowed atomic.Bool
	window   int

	sp *spanRec // nil unless tracing
}

// buildMix derives the request mix from the seed: n messages, one third
// of each kind, in a shuffled order with seeded parameters. The program
// under test only ever sees these messages.
func buildMix(seed int64, n int) []*xmlcmd.Message {
	rng := rand.New(rand.NewSource(seed))
	mix := make([]*xmlcmd.Message, n)
	for i := range mix {
		switch i % 3 {
		case 0:
			f := 437.1e6 + (rng.Float64()*2-1)*10e3 // Doppler range around the carrier
			mix[i] = xmlcmd.NewCommand(gateName, "rtu", 0, "tune",
				"freqHz", strconv.FormatFloat(f, 'g', -1, 64))
		case 1:
			mix[i] = xmlcmd.NewCommand(gateName, "str", 0, "point",
				"azRad", strconv.FormatFloat(rng.Float64()*6.28, 'g', -1, 64),
				"elRad", strconv.FormatFloat(rng.Float64()*1.5, 'g', -1, 64))
		default:
			f := 437.1e6 + (rng.Float64()*2-1)*10e3
			mix[i] = xmlcmd.NewCommand(gateName, "fedr", 0, "radio-tune",
				"freqHz", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	rng.Shuffle(n, func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// dialGate connects the gate client to the station's bus.
func dialGate(addr string, seed int64, sp *spanRec) (*gate, error) {
	g := &gate{
		pend:     newPendTable(16),
		mix:      buildMix(seed, 3*256),
		deadline: 250 * time.Millisecond,
		oldest:   1,
		lat:      make([]uint32, 1<<21),
		tokens:   make(chan struct{}, maxWindow),
		sp:       sp,
	}
	conn, err := bus.DialAuto(addr, gateName, g.onMsg)
	if err != nil {
		return nil, fmt.Errorf("dial gate: %w", err)
	}
	g.conn = conn
	return g, nil
}

func (g *gate) close() { g.conn.Close() }

// onMsg is the ack callback. It runs on the bus client's read goroutine.
func (g *gate) onMsg(m *xmlcmd.Message) {
	if m.Ack == nil {
		return
	}
	now := time.Now().UnixNano()
	if mk := g.mark.Load(); mk != 0 && now >= mk && g.mark.CompareAndSwap(mk, 0) {
		g.markLag.Store(now - mk)
	}
	seq := m.Ack.OfSeq
	if seq == 0 || seq > g.issued.Load() {
		g.unknown.Add(1)
		return
	}
	slot := seq & g.pend.mask
	if g.pend.seq[slot].Load() != seq {
		g.stale.Add(1) // slot long since reused; only possible after a give-up
		return
	}
	at := g.pend.at[slot].Swap(slotAcked)
	switch {
	case at > 0:
		if g.resends == 0 && time.Duration(now-at) > g.deadline {
			g.late.Add(1)
		} else {
			g.acked.Add(1)
			g.recordLatency(now - g.pend.first[slot])
		}
		if g.sp != nil {
			g.sp.add("gen", "ack", at, now, seq)
		}
		if g.windowed.Load() {
			g.tokens <- struct{}{} // never blocks: one token per finished operation
		}
	case at == slotAcked:
		g.dup.Add(1)
	case at == slotExpired:
		g.pend.at[slot].Store(slotExpired)
		g.stale.Add(1)
	default: // slotFree: seq matched but nothing pending — cannot happen
		g.unknown.Add(1)
	}
}

func (g *gate) recordLatency(lat int64) {
	i := g.latN.Add(1) - 1
	if int(i) >= len(g.lat) {
		return
	}
	if lat > int64(^uint32(0)) {
		lat = int64(^uint32(0))
	}
	if lat < 0 {
		lat = 0
	}
	g.lat[i] = uint32(lat)
}

// start begins a new operation counted from instant first.
func (g *gate) start(first, now int64) {
	g.ops.Add(1)
	g.attempt(retryItem{first: first, mix: uint32(g.nextMix % uint64(len(g.mix)))}, now)
	g.nextMix++
}

// attempt sends one frame for an operation.
func (g *gate) attempt(it retryItem, now int64) {
	seq := g.issued.Load() + 1
	slot := seq & g.pend.mask
	p := g.pend
	p.at[slot].Store(slotFree)
	p.first[slot], p.mix[slot], p.tries[slot] = it.first, it.mix, it.tries
	p.seq[slot].Store(seq)
	p.at[slot].Store(now)
	g.issued.Store(seq)
	m := g.mix[it.mix]
	m.Seq = seq
	if g.sp != nil {
		t0 := time.Now().UnixNano()
		g.conn.Send(m)
		g.sp.add("bus", "gate.Send", t0, time.Now().UnixNano(), seq)
	} else {
		g.conn.Send(m)
	}
}

// sweep gives up attempts older than the deadline: with resends left the
// operation is queued to be sent again, otherwise it is abandoned (and a
// closed-loop window slot handed back). The sender calls it about four
// times per deadline; the cost is bounded by the in-flight span.
func (g *gate) sweep(now int64) {
	g.lastSweep = now
	p := g.pend
	next := g.issued.Load() + 1
	if span := uint64(len(p.at)); next-g.oldest > span {
		g.oldest = next - span
	}
	advancing := true
	for seq := g.oldest; seq < next; seq++ {
		slot := seq & p.mask
		at := p.at[slot].Load()
		if at > 0 && p.seq[slot].Load() == seq {
			if time.Duration(now-at) <= g.deadline {
				advancing = false
				continue
			}
			if p.at[slot].CompareAndSwap(at, slotExpired) {
				if int(p.tries[slot]) < g.resends {
					g.retryQ = append(g.retryQ, retryItem{first: p.first[slot], mix: p.mix[slot], tries: p.tries[slot] + 1})
				} else {
					g.abandoned.Add(1)
					if g.windowed.Load() {
						g.tokens <- struct{}{}
					}
				}
			}
		}
		if advancing {
			g.oldest = seq + 1
		}
	}
}

// pump runs the sender's housekeeping between sends: a sweep when one is
// due, then any queued resends.
func (g *gate) pump(now int64) {
	if time.Duration(now-g.lastSweep) > g.deadline/4 {
		g.sweep(now)
	}
	for len(g.retryQ) > 0 {
		it := g.retryQ[0]
		g.retryQ = g.retryQ[1:]
		g.resent.Add(1)
		g.attempt(it, now)
	}
}

// drain waits until every operation has finished: acknowledged, or given
// up after its last attempt.
func (g *gate) drain() {
	limit := time.Now().Add(time.Duration(g.resends+1)*g.deadline*5/4 + 100*time.Millisecond)
	for g.finished() < g.ops.Load() && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
		g.pump(time.Now().UnixNano())
	}
}

// resetCounts forgets the operations so far (the set-up's registration
// probes). Sequence numbers keep running.
func (g *gate) resetCounts() {
	g.ops.Store(0)
	g.acked.Store(0)
	g.late.Store(0)
	g.abandoned.Store(0)
	g.resent.Store(0)
	g.stale.Store(0)
}

// finished counts operations with a final outcome.
func (g *gate) finished() uint64 { return g.acked.Load() + g.failed() }

// failed counts operations not acknowledged: too late, or never.
func (g *gate) failed() uint64 { return g.late.Load() + g.abandoned.Load() }

// sent counts the frames issued so far.
func (g *gate) sent() uint64 { return g.issued.Load() }

// resetLatencies starts a new latency sample (a phase's discarded warm-up
// ends here).
func (g *gate) resetLatencies() { g.latN.Store(0) }

// latencies returns the sorted operation latencies recorded since the
// reset.
func (g *gate) latencies() []uint32 {
	n := int(g.latN.Load())
	if n > len(g.lat) {
		n = len(g.lat)
	}
	out := append([]uint32(nil), g.lat[:n]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileNs reads quantile q of sorted latencies, in nanoseconds.
func quantileNs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}

// closedLoop keeps window operations in flight until the wall deadline
// and returns the number acknowledged during the call. Each operation is
// timed from the instant it is first sent.
func (g *gate) closedLoop(window int, until time.Time) uint64 {
	if !g.windowed.Load() || g.window != window {
		// Nothing is in flight between phases: hand out exactly one token
		// per window slot.
		g.quiesce()
		for i := 0; i < window; i++ {
			g.tokens <- struct{}{}
		}
		g.window = window
		g.windowed.Store(true)
	}
	base := g.acked.Load()
	wait := time.NewTimer(g.deadline / 4)
	defer wait.Stop()
	for {
		now := time.Now()
		if !now.Before(until) {
			return g.acked.Load() - base
		}
		g.pump(now.UnixNano())
		select {
		case <-g.tokens:
			g.start(now.UnixNano(), now.UnixNano())
			continue
		default:
		}
		// Window full: block for an ack, but wake in time to sweep so a lost
		// request cannot wedge the loop.
		if !wait.Stop() {
			select {
			case <-wait.C:
			default:
			}
		}
		wait.Reset(g.deadline / 4)
		select {
		case <-g.tokens:
			t := time.Now().UnixNano()
			g.start(t, t)
		case <-wait.C:
		}
	}
}

// quiesce ends a closed-loop phase: waits for the window to come home and
// takes the tokens back.
func (g *gate) quiesce() {
	g.drain()
	g.windowed.Store(false)
	for len(g.tokens) > 0 {
		<-g.tokens
	}
}

// openStats describes how well the open-loop generator kept its schedule.
type openStats struct {
	sent      uint64
	lateSends uint64  // sent more than 1 ms after the intended instant
	maxLateMs float64 // worst send lateness
}

// openLoop starts operations at a fixed rate on an absolute schedule —
// operation i is due at start + i·interval, never "interval after the
// previous send" — and times each from its intended instant, so a
// generator or station stall is charged to the operations it delayed. It
// ends after dur or, if stop is given, as soon as stop reads true.
func (g *gate) openLoop(rate float64, dur time.Duration, stop *atomic.Bool) openStats {
	g.quiesce()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(interval)
	n := int(dur / interval)
	var st openStats
	for i := 0; i < n && (stop == nil || !stop.Load()); i++ {
		intended := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if d := intended.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		lateBy := now.Sub(intended)
		if lateBy > time.Millisecond {
			st.lateSends++
		}
		if ms := float64(lateBy) / 1e6; ms > st.maxLateMs {
			st.maxLateMs = ms
		}
		g.start(intended.UnixNano(), now.UnixNano())
		st.sent++
		g.pump(now.UnixNano())
	}
	return st
}
