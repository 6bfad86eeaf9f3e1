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
// simulated fabric, and every loop's event is its component under another
// type, so arming one allocates nothing either.
type base struct {
	ctx proc.Context // this incarnation's, set at Start

	// store is the crash-only state store micro mode externalizes state
	// into; nil in classic mode.
	store *store.Store
	ready bool
	seq   uint64

	warnings int
	ageScore float64

	// readyAt is when the component became ready, which the beacon's
	// uptime counts from.
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
func (b *base) becomeReady() {
	if b.ready {
		return
	}
	b.ready = true
	b.readyAt = b.ctx.Now()
	b.ctx.Schedule(healthPeriod, (*beacon)(b))
	b.ctx.Ready()
}

// readyEvent makes its component ready (a startup or a settle ends).
type readyEvent base

func (e *readyEvent) Fire() { (*base)(e).becomeReady() }

// beacon is the health-beacon loop: it re-arms itself and, like every
// scheduled event, dies with the incarnation.
type beacon base

func (e *beacon) Fire() {
	b := (*base)(e)
	ctx := b.ctx
	ctx.Schedule(healthPeriod, e)
	ctx.Send(ctx.Pool().Health(ctx.Name(), xmlcmd.AddrFD, b.nextSeq(), xmlcmd.Health{
		Incarnation: ctx.Incarnation(),
		UptimeMs:    ctx.Now().Sub(b.readyAt).Milliseconds(),
		AgeScore:    b.ageScore,
		Warnings:    b.warnings,
		Suspect:     b.ageScore >= 0.8,
	}))
}
