package station

import (
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// base carries the behaviour every station component shares: readiness
// gating of liveness pings, per-incarnation sequence numbers, startup
// jitter and health-summary beacons. Everything a component sends is minted
// from ctx.Pool(), so steady-state traffic allocates nothing under the
// simulated fabric.
type base struct {
	// store is the crash-only state store micro mode externalizes state
	// into; nil in classic mode.
	store *store.Store
	ready bool
	seq   uint64

	warnings   int
	ageScore   float64
	queueDepth int

	// beacon is the health-beacon loop, bound at readiness; readyAt is
	// when that was, which the beacon's uptime counts from.
	beacon  func()
	readyAt time.Time

	// micro is the microrebootable-container state; nil in classic mode
	// (see micro.go).
	micro *microState
}

// nextSeq returns a fresh sender-scoped sequence number.
func (b *base) nextSeq() uint64 {
	b.seq++
	return b.seq
}

// startupDelay computes this incarnation's startup duration: the base time
// stretched by restart contention, with a small jitter.
func (b *base) startupDelay(ctx proc.Context, baseDur time.Duration) time.Duration {
	d := time.Duration(float64(baseDur) * ctx.Stretch())
	return clock.Jitter(ctx.Rand(), d, StartupJitterFrac)
}

// handleCommon services the protocol traffic shared by all components. It
// reports whether the message was consumed.
func (b *base) handleCommon(ctx proc.Context, m *xmlcmd.Message) bool {
	switch m.Kind() {
	case xmlcmd.KindPing:
		// Only a functionally-ready component certifies liveness; a ping
		// during startup goes unanswered, so FD keeps treating the
		// component as down until it really serves (paper §2.2).
		if b.ready {
			ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
		}
		return true
	case xmlcmd.KindPong, xmlcmd.KindAck, xmlcmd.KindHealth:
		// Absorbed by default; components that care override before
		// delegating here.
		return true
	}
	return false
}

// becomeReady flips the component to ready, starts its health beacon and
// reports readiness to the process manager.
func (b *base) becomeReady(ctx proc.Context) {
	if b.ready {
		return
	}
	b.ready = true
	// The beacon loop is bound once, as one closure kept here, and
	// re-arms itself; like every ctx.After callback it dies with the
	// incarnation.
	b.readyAt = ctx.Now()
	b.beacon = func() {
		ctx.After(healthPeriod, b.beacon)
		ctx.Send(ctx.Pool().Health(ctx.Name(), xmlcmd.AddrFD, b.nextSeq(), xmlcmd.Health{
			Incarnation: ctx.Incarnation(),
			UptimeMs:    ctx.Now().Sub(b.readyAt).Milliseconds(),
			QueueDepth:  b.queueDepth,
			AgeScore:    b.ageScore,
			Warnings:    b.warnings,
			Suspect:     b.ageScore >= 0.8,
		}))
	}
	ctx.After(healthPeriod, b.beacon)
	ctx.Ready()
}
