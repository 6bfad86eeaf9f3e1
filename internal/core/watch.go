package core

import (
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// pairStartup is how long FD and REC each take to start.
const pairStartup = 500 * time.Millisecond

// peerFailAfter is how many consecutive unanswered pings make a watcher
// restart its peer.
const peerFailAfter = 3

// watcher is what FD and REC share as the two ends of their dedicated
// link (DESIGN.md §16), embedded in each: the incarnation's up gate, its
// envelope counters, and its watch of the peer. Each pings the other on
// FD's PingPeriod and PingTimeout, one ping in flight, and restarts it
// after peerFailAfter misses in a row. The watch's events are the watcher
// itself under other types (watchPing, watchVerify), so the loop
// schedules without allocating, and each checks the gate: a watcher that
// is down pings, blames and restarts nothing, and its loop ends there.
type watcher struct {
	self, peer      string
	mgr             *proc.Manager
	period, timeout time.Duration
	m               *watchMetrics

	ctx proc.Context // this incarnation's; its timers die with it

	up, down   bool   // up: past startup and never down since
	seq, nonce uint64 // the incarnation's envelope counters
	awaiting   uint64 // nonce of the peer ping awaiting its pong, 0 = none
	missed     int
}

// The watcher's events, each the watcher under another type.
type (
	watchPing   watcher // pings the peer
	watchVerify watcher // judges that ping a timeout later
)

// watchMetrics are the counters one watcher moves. FD counts its pings of
// REC among its own probes; REC counts only the recoveries it starts.
type watchMetrics struct {
	sent, answered, missed *obs.Counter
	recovered              *obs.Counter
}

var (
	fdWatch  = watchMetrics{&M.FDPingsSent, &M.FDPongs, &M.FDPongsMissed, &M.FDRECRecoveries}
	recWatch = watchMetrics{recovered: &M.RECFDRecoveries}
)

func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func newWatcher(self, peer string, mgr *proc.Manager, fd FDParams, m *watchMetrics) watcher {
	return watcher{self: self, peer: peer, mgr: mgr, period: fd.PingPeriod, timeout: fd.PingTimeout, m: m}
}

// start has up, the owner's event, fire pairStartup from now: the owner
// then calls ready, starts its own loops and then the watch. An
// incarnation that went down while starting still finishes starting, so
// that its peer may restart it, but is never up.
func (w *watcher) start(ctx proc.Context, up clock.Event) {
	w.ctx = ctx
	ctx.Schedule(pairStartup, up)
}

// ready ends the incarnation's startup.
func (w *watcher) ready() {
	w.up = !w.down
	w.ctx.Ready()
}

// watch starts the watch of the peer, its first ping first from now.
func (w *watcher) watch(first time.Duration) {
	w.ctx.Schedule(first, (*watchPing)(w))
}

func (e *watchPing) Fire()   { (*watcher)(e).sendPing() }
func (e *watchVerify) Fire() { (*watcher)(e).verifyPing() }

// Down implements proc.Downer: the incarnation is dead or hung, for good.
func (w *watcher) Down(string) { w.up, w.down = false, true }

func (w *watcher) sendPing() {
	if !w.up {
		return
	}
	ctx := w.ctx
	w.nonce++
	w.awaiting = w.nonce
	w.seq++
	count(w.m.sent)
	ctx.Send(ctx.Pool().Ping(w.self, w.peer, w.seq, w.nonce))
	ctx.Schedule(w.timeout, (*watchVerify)(w))
}

// verifyPing runs PingTimeout after sendPing: awaiting is still set only
// if the pong never arrived.
func (w *watcher) verifyPing() {
	if !w.up {
		return
	}
	ctx := w.ctx
	if w.awaiting != 0 {
		w.missed++
		count(w.m.missed)
		if w.missed >= peerFailAfter {
			w.missed = 0
			w.m.recovered.Inc()
			ctx.Log().Add(ctx.Now(), trace.FailureDetected, w.peer, "",
				w.self+" initiating "+w.peer+" recovery")
			w.restartPeer()
		}
	}
	ctx.Schedule(w.period-w.timeout, (*watchPing)(w))
}

// restartPeer is the one peer-restart rule: restart it unless a restart
// is already under way.
func (w *watcher) restartPeer() {
	if st, _ := w.mgr.State(w.peer); st != proc.Starting {
		_ = w.mgr.Restart([]string{w.peer})
	}
}

// answer handles the link's own traffic — a ping from the peer, which an
// up incarnation answers, and the pong to the watch's ping — and reports
// whether m was one.
func (w *watcher) answer(ctx proc.Context, m *xmlcmd.Message) bool {
	switch {
	case m.Kind() == xmlcmd.KindPing:
		if w.up {
			w.seq++
			ctx.Send(ctx.Pool().Pong(w.self, m, ctx.Incarnation()))
		}
	case m.Kind() == xmlcmd.KindPong && m.From == w.peer:
		if m.Pong.Nonce == w.awaiting {
			w.awaiting = 0
			w.missed = 0
			count(w.m.answered)
		}
	default:
		return false
	}
	return true
}
