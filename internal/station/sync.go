package station

import (
	"fmt"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// syncCore implements the ses↔str startup-resynchronisation protocol.
//
// The paper (§4.3): the two components "synchronize with each other at
// startup and, when either is restarted, the other will inevitably have to
// be restarted as well. When restarted, both ses and str block waiting for
// the peer component to resynchronize." That is:
//
//   - A freshly started component proposes a new session epoch to its peer
//     and blocks (WAIT_SYNC) until the epoch is agreed.
//   - A peer that is itself starting adopts the larger epoch: both settle
//     and become ready.
//   - A peer that is already running sees an epoch it cannot adopt and
//     crashes — the induced correlated failure (f_ses ≈ f_str ≈ 0,
//     f_{ses,str} ≈ 1) that motivates group consolidation.
//
// Proposals are retransmitted until acknowledged so the handshake survives
// message loss (e.g. while mbus is itself restarting).
type syncCore struct {
	base
	peer string

	myEpoch    int64
	peerEpoch  int64 // proposal buffered while still initialising
	inWaitSync bool
	synced     bool

	// session is the externalized epoch cell in micro mode; nil classic.
	session *sessionCell
}

// enterWaitSync is called when base initialisation finishes. In micro mode
// the session epoch lives in the crash-only store: if a live epoch
// survives there, this incarnation reattaches to it without any handshake
// — the running peer is never disturbed, so the induced correlated
// failure (restart one, crash the other) disappears. The handshake only
// runs when no epoch survives (both peers dead past the lease TTL), and
// its agreed epoch is persisted for the next restart.
func (s *syncCore) enterWaitSync() {
	ctx := s.ctx
	if s.store != nil && s.session == nil {
		if cell, ok := acquireSessionCell(ctx, &s.base); ok {
			s.session = cell
		}
	}
	if s.session != nil {
		if epoch, ok := s.session.Load(); ok {
			s.myEpoch = epoch
			s.synced = true
			ctx.Schedule(reattachSettle, (*readyEvent)(&s.base))
			return
		}
	}
	s.inWaitSync = true
	s.myEpoch = ctx.Rand().Int63()
	if s.peerEpoch != 0 {
		// The peer proposed while we were initialising; agree now.
		s.agree(ctx, max(s.myEpoch, s.peerEpoch))
		ctx.Send(ctx.Pool().SyncAck(ctx.Name(), s.peer, s.nextSeq(), s.myEpoch))
		return
	}
	s.sendSync(ctx)
	ctx.Schedule(syncRetransmit, (*resync)(s))
}

// waitSync ends base initialisation: enterWaitSync.
type waitSync syncCore

func (e *waitSync) Fire() { (*syncCore)(e).enterWaitSync() }

// resync re-proposes until synced; the timer dies with the incarnation
// automatically.
type resync syncCore

func (e *resync) Fire() {
	s := (*syncCore)(e)
	if s.synced {
		return
	}
	s.sendSync(s.ctx)
	s.ctx.Schedule(syncRetransmit, e)
}

// sendSync proposes the current epoch to the peer.
func (s *syncCore) sendSync(ctx proc.Context) {
	ctx.Send(ctx.Pool().Sync(ctx.Name(), s.peer, s.nextSeq(), s.myEpoch))
}

// agree adopts the winning epoch and schedules readiness after the settle
// time. In micro mode the agreed epoch is persisted so future restarts
// reattach instead of handshaking.
func (s *syncCore) agree(ctx proc.Context, epoch int64) {
	s.myEpoch = epoch
	s.synced = true
	if s.session != nil {
		_ = s.session.Save(epoch)
	}
	ctx.Schedule(SyncSettle, (*readyEvent)(&s.base))
}

// reloadEpoch is the cache subcomponent's reattach hook: re-read the
// session epoch from the store after a microreboot dropped the logic copy.
func (s *syncCore) reloadEpoch() {
	if s.session != nil {
		if e, ok := s.session.Load(); ok {
			s.myEpoch = e
		}
	}
}

// handleSync processes a peer proposal.
func (s *syncCore) handleSync(ctx proc.Context, m *xmlcmd.Message) {
	e := m.Sync.Epoch
	switch {
	case s.ready:
		if e != s.myEpoch {
			// A running component cannot resynchronise with a restarted
			// peer: the failure the paper observed. The restart of the
			// peer thereby induces this component's failure.
			ctx.Fail(fmt.Sprintf("resynchronization with restarted %s failed (epoch %d != %d)",
				s.peer, e, s.myEpoch))
			return
		}
		// Same epoch: duplicate proposal; re-acknowledge.
		ctx.Send(ctx.Pool().SyncAck(ctx.Name(), s.peer, s.nextSeq(), s.myEpoch))
	case s.inWaitSync && !s.synced:
		winner := max(s.myEpoch, e)
		s.agree(ctx, winner)
		ctx.Send(ctx.Pool().SyncAck(ctx.Name(), s.peer, s.nextSeq(), winner))
	case s.inWaitSync && s.synced:
		// Settling; the peer may have missed the ack.
		ctx.Send(ctx.Pool().SyncAck(ctx.Name(), s.peer, s.nextSeq(), s.myEpoch))
	default:
		// Still initialising: buffer and answer on WAIT_SYNC entry.
		s.peerEpoch = e
	}
}

// handleSyncAck processes the peer's acceptance.
func (s *syncCore) handleSyncAck(ctx proc.Context, m *xmlcmd.Message) {
	if s.inWaitSync && !s.synced {
		s.agree(ctx, m.SyncAck.Epoch)
	}
	// Duplicate or late acks are ignored.
}
