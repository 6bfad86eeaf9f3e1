package station

import (
	"sort"
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file implements the microrebootable decomposition of the fat
// components. In micro mode the session/track state that used to live in
// process memory — and forced the ses↔str co-restart — moves into the
// crash-only store behind leases, and each fat component splits into
// subcomponents whose logic can crash and be microrebooted individually
// while the hosting process's protocol shell keeps serving.
//
//	ses  = ses.cache (session epoch)  + ses.est  (estimator workload)
//	str  = str.cache (session epoch)  + str.track (antenna target)
//	fedr = fedr.session (pbcom connection session)
//
// A microreboot is "drop the logic, reattach to the state": the sub's
// reattach hook re-reads its state from the store and the sub is
// functional again after microrebootTime — no process teardown, no resync
// handshake, no induced peer failure.

// Subcomponent short names.
const (
	SubCache   = "cache"
	SubEst     = "est"
	SubTrack   = "track"
	SubSession = "session"
)

// Store keys for the externalized state.
const (
	KeySessionEpoch = "session/epoch" // shared ses↔str session epoch
	KeyTrackTarget  = "track/target"  // str's current antenna target
	KeyFedrSession  = "session/fedr"  // fedr's pbcom connection session
)

// MicroSubs maps each fat component to its subcomponent short names; this
// is both the proc registration set and the SubAugment input for the
// m-variant trees.
func MicroSubs() map[string][]string {
	return map[string][]string{
		SES:  {SubCache, SubEst},
		STR:  {SubCache, SubTrack},
		Fedr: {SubSession},
	}
}

// MicroCheckpointKeys maps each stateful subcomponent (dotted name) to the
// store keys holding its externalized state — the checkpoint manager's
// coverage map. Stateless subs (ses.est) are not checkpointable: a
// microreboot already recovers everything they have.
func MicroCheckpointKeys() map[string][]string {
	return map[string][]string{
		proc.SubName(SES, SubCache):    {KeySessionEpoch},
		proc.SubName(STR, SubTrack):    {KeyTrackTarget},
		proc.SubName(Fedr, SubSession): {KeyFedrSession},
	}
}

// RegisterSubs registers the microrebootable subcomponents with the
// manager, in deterministic order.
func RegisterSubs(mgr *proc.Manager) error {
	subs := MicroSubs()
	parents := make([]string, 0, len(subs))
	for parent := range subs {
		parents = append(parents, parent)
	}
	sort.Strings(parents)
	for _, parent := range parents {
		for _, short := range subs[parent] {
			if err := mgr.RegisterSub(parent, short); err != nil {
				return err
			}
		}
	}
	return nil
}

// microState is the per-incarnation container bookkeeping base carries in
// micro mode: the subcomponents, and the leases to renew.
type microState struct {
	ctx    proc.Context
	subs   []microSub
	leases []*store.Lease // renewed from the first one on
}

// microSub is one subcomponent inside the container: whether its logic is
// broken, how to reattach it to its store state, and, as an event, its
// self-report loop.
type microSub struct {
	b           *base
	short, name string // name is the dotted one FD and the tree know
	broken      bool
	reattach    func()
}

// subNames holds each fat component's subcomponents as a container names
// them, short and dotted: built once, so an incarnation allocates no name.
var subNames = func() map[string][]microSub {
	out := make(map[string][]microSub)
	for parent, shorts := range MicroSubs() {
		for _, short := range shorts {
			out[parent] = append(out[parent], microSub{short: short, name: proc.SubName(parent, short)})
		}
	}
	return out
}()

// sub returns the subcomponent with the short name, or nil.
func (m *microState) sub(short string) *microSub {
	for i := range m.subs {
		if m.subs[i].short == short {
			return &m.subs[i]
		}
	}
	return nil
}

// renewal is the lease-renewal loop.
type renewal microState

func (e *renewal) Fire() {
	m := (*microState)(e)
	m.ctx.Schedule(sessionTTL/3, e)
	for _, l := range m.leases {
		_ = l.Renew(sessionTTL) // a lost lease re-arms via the next reattach
	}
}

// microArm initialises the container for this incarnation and reports
// whether there is one: components call it at Start, and register their
// reattach hooks only then, so classic mode binds none. It is a no-op in
// classic mode.
func (b *base) microArm(ctx proc.Context) bool {
	if b.store == nil {
		return false
	}
	subs := append([]microSub(nil), subNames[ctx.Name()]...)
	for i := range subs {
		subs[i].b = b
	}
	b.micro = &microState{ctx: ctx, subs: subs}
	return true
}

// microHook registers sub's reattach logic, run on every microreboot.
func (b *base) microHook(sub string, fn func()) {
	if b.micro != nil {
		b.micro.sub(sub).reattach = fn
	}
}

// microLease tracks a lease for periodic renewal and starts the renewal
// loop on first use. The loop rides the incarnation context, so renewals
// stop the instant the process dies — which is exactly what lets the state
// expire when nobody is left alive to claim it.
func (b *base) microLease(ctx proc.Context, l *store.Lease) {
	m := b.micro
	if m.leases = append(m.leases, l); len(m.leases) == 1 {
		ctx.Schedule(sessionTTL/3, (*renewal)(m))
	}
}

// subOK reports whether a subcomponent's logic is functional. Classic-mode
// components have no subs and are always whole.
func (b *base) subOK(sub string) bool { return b.micro == nil || !b.micro.sub(sub).broken }

// SubFail implements proc.Microrebootable: the named subcomponent's logic
// crashed. The container shell keeps serving (pings, beacons, unrelated
// subs), notices after the assertion latency and self-reports to FD,
// re-reporting until a recovery action repairs the sub.
func (b *base) SubFail(sub string) {
	if b.micro == nil {
		return
	}
	s := b.micro.sub(sub)
	s.broken = true
	b.micro.ctx.Schedule(subFaultDetect, s)
}

// Fire is the sub's self-report loop: while its logic stays broken, it
// reports the sub to FD and re-arms.
func (s *microSub) Fire() {
	if !s.broken {
		return
	}
	ctx := s.b.micro.ctx
	ctx.Send(ctx.Pool().Event(ctx.Name(), xmlcmd.AddrFD, s.b.nextSeq(), "subfault", s.name))
	ctx.Schedule(subReReport, s)
}

// SubMicroreboot implements proc.Microrebootable: discard the sub's logic
// state and reattach it to the store. The manager marks the sub ready
// after the returned re-init delay.
func (b *base) SubMicroreboot(sub string) time.Duration {
	if b.micro == nil {
		return 0
	}
	s := b.micro.sub(sub)
	s.broken = false
	if s.reattach != nil {
		s.reattach()
	}
	return microrebootTime
}

// trackTarget is str's externalized antenna target.
type trackTarget struct {
	az, el float64
}

// trackCodec encodes a trackTarget as two fixed-width floats.
func trackCodec() store.Codec[trackTarget] {
	return store.Codec[trackTarget]{
		Append: func(dst []byte, v trackTarget) []byte {
			dst = store.AppendFloat64(dst, v.az)
			return store.AppendFloat64(dst, v.el)
		},
		Parse: func(src []byte) (trackTarget, bool) {
			az, rest, ok := store.ParseFloat64(src)
			if !ok {
				return trackTarget{}, false
			}
			el, rest, ok := store.ParseFloat64(rest)
			if !ok || len(rest) != 0 {
				return trackTarget{}, false
			}
			return trackTarget{az: az, el: el}, true
		},
	}
}

// sessionCell is the typed view of the shared session epoch.
type sessionCell = store.Cell[int64]

// acquireSessionCell leases the shared ses↔str session epoch. Both peers
// use the same co-ownership token: either can reattach while the other
// lives, and the epoch dies only when both stay dead for a full TTL.
func acquireSessionCell(ctx proc.Context, b *base) (*sessionCell, bool) {
	l, err := b.store.Acquire(KeySessionEpoch, "ses+str", sessionTTL)
	if err != nil {
		return nil, false
	}
	b.microLease(ctx, l)
	return store.NewCell(l, store.Int64Codec()), true
}
