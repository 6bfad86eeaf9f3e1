package rt

import (
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// The hold sits between the dispatcher and proc.Manager.Deliver. A command
// an outside client (an operator console, ctl, faultgen: any sender that is
// not one of the host's processes) addresses to a process that is about to
// serve — Starting, or Running with a subcomponent down — waits here
// instead of being dropped, and is delivered once that incarnation is
// ready or the sub has reattached. A Dead process still drops it
// (fail-silent), and nothing but a command is ever held: pings, syncs,
// connects and acks between the host's own processes pass straight
// through, so the restart protocol and its timings do not change.
//
// The hold keeps pooled copies (the dispatcher hands the received envelope
// back to its connection when Deliver returns) in arrival order, each
// tagged with the incarnation it waits for. While any wait, every ready or
// down move queues one dispatcher post that settles them; the release never
// runs inside the OnReady listener, because a process's subcomponents follow
// it to Running only after the listeners have run. A copy whose incarnation
// has died is dropped.

// holdBytes bounds the encoded bytes of the held copies; past it the
// oldest is shed. A held command is worth delivering only while its sender
// still waits for the ack: at 2,000 commands a second of ~150 bytes, 32 KiB
// is ~110 ms of traffic, about one typical 100 ms client deadline.
const holdBytes = 32 << 10

// HoldMetrics counts what became of the held commands.
type HoldMetrics struct {
	Released obs.Counter // delivered after the ready move or reattach they waited for
	Shed     obs.Counter // the oldest, pushed out by the byte bound
	Dropped  obs.Counter // their incarnation died, or the process was silenced
}

// M is the process-wide hold metrics instance.
var M HoldMetrics

// RegisterMetrics registers the hold's counter family with an obs registry
// under the mercury_rt_* namespace.
func RegisterMetrics(r *obs.Registry) {
	const name, help = "mercury_rt_hold_total", "Outside commands held for a starting process or a down subcomponent, by outcome."
	r.RegisterCounter(name, help, &M.Released, "outcome", "released")
	r.RegisterCounter(name, help, &M.Shed, "outcome", "shed")
	r.RegisterCounter(name, help, &M.Dropped, "outcome", "dropped")
}

// holdTarget is one of the host's processes as the hold sees it.
type holdTarget struct {
	name string
	ref  proc.Ref
	subs []proc.Ref
	held int // copies parked for it
}

// whole reports the process and every subcomponent serving.
func (t *holdTarget) whole() bool {
	if !t.ref.Serving() {
		return false
	}
	for _, s := range t.subs {
		if !s.Serving() {
			return false
		}
	}
	return true
}

// heldCopy is one parked command.
type heldCopy struct {
	m     *xmlcmd.Message // minted by the manager's pool
	t     *holdTarget
	gen   int // the incarnation it waits for
	bytes int
}

// hold is the dispatcher-owned parking area. Every field is touched only on
// the dispatch goroutine.
type hold struct {
	mgr     *proc.Manager
	post    func(func())
	targets map[string]*holdTarget // every process of the host, by name
	queue   []heldCopy             // arrival order
	bytes   int
	posted  bool   // a release is queued on the dispatcher
	release func() // settle, bound once
	scratch []byte // encode buffer that sizes a copy
}

// init learns the host's processes and their subcomponents once the
// station is assembled, and listens for the moves that can end a wait.
func (hd *hold) init(mgr *proc.Manager, post func(func())) {
	hd.mgr, hd.post = mgr, post
	hd.release = hd.settle
	hd.targets = make(map[string]*holdTarget)
	for _, name := range mgr.Names() {
		hd.targets[name] = &holdTarget{name: name, ref: mgr.Ref(name)}
	}
	for _, sub := range mgr.SubNames() {
		if t := hd.targets[mgr.Parent(sub)]; t != nil {
			t.subs = append(t.subs, mgr.Ref(sub))
		}
	}
	mgr.OnReady(func(string) { hd.wake() })
	mgr.OnDown(func(string, string) { hd.wake() })
}

// wake queues one release behind the move being made, if anything waits.
func (hd *hold) wake() {
	if len(hd.queue) > 0 && !hd.posted {
		hd.posted = true
		hd.post(hd.release)
	}
}

// deliver is the dispatcher's delivery: Manager.Deliver, unless m is an
// outside command for a process that is not whole or already has commands
// waiting (a newer one must not overtake them).
func (hd *hold) deliver(m *xmlcmd.Message) bool {
	if m.Command != nil {
		if t := hd.targets[m.To]; t != nil && (t.held > 0 || !t.whole()) && hd.targets[m.From] == nil {
			return hd.park(m, t)
		}
	}
	return hd.mgr.Deliver(m)
}

// state reports t's incarnation, whether it is live (Starting or
// Running), and whether a command for it must wait: it is Starting, or
// Running and responsive with a subcomponent down.
func (hd *hold) state(t *holdTarget) (gen int, live, wait bool) {
	st, _ := hd.mgr.State(t.name)
	gen, _ = hd.mgr.Incarnation(t.name)
	switch st {
	case proc.Starting:
		return gen, true, true
	case proc.Running:
		return gen, true, t.ref.Serving() && !t.whole()
	}
	return gen, false, false
}

// park holds a copy of m for t's incarnation. A command for a process that
// waits for nothing is delivered — a dead or silenced one drops it there —
// unless earlier copies still wait for their release post.
func (hd *hold) park(m *xmlcmd.Message, t *holdTarget) bool {
	gen, _, wait := hd.state(t)
	if !wait && !(t.held > 0 && t.whole()) {
		return hd.mgr.Deliver(m)
	}
	buf, err := xmlcmd.AppendEncode(hd.scratch[:0], m)
	if err != nil {
		return hd.mgr.Deliver(m)
	}
	hd.scratch = buf
	c := hd.mgr.Pool().Command(m.From, m.To, m.Seq, m.Command.Name, m.Command.Params...)
	hd.queue = append(hd.queue, heldCopy{m: c, t: t, gen: gen, bytes: len(buf)})
	hd.bytes += len(buf)
	t.held++
	for hd.bytes > holdBytes && len(hd.queue) > 1 {
		hd.forget(hd.queue[0])
		M.Shed.Inc()
		n := copy(hd.queue, hd.queue[1:])
		hd.queue[n] = heldCopy{}
		hd.queue = hd.queue[:n]
	}
	return true
}

// forget ends c's bookkeeping and hands its envelope back.
func (hd *hold) forget(c heldCopy) {
	hd.bytes -= c.bytes
	c.t.held--
	hd.mgr.Pool().RecycleMessage(c.m)
}

// settle walks the held copies in arrival order: a copy whose incarnation
// has died is dropped, one whose target still waits stays, and the rest
// are delivered.
func (hd *hold) settle() {
	hd.posted = false
	kept := hd.queue[:0]
	for _, c := range hd.queue {
		gen, live, wait := hd.state(c.t)
		switch {
		case !live || gen != c.gen:
			M.Dropped.Inc()
		case wait:
			kept = append(kept, c)
			continue
		case hd.mgr.Deliver(c.m):
			M.Released.Inc()
		default: // silenced
			M.Dropped.Inc()
		}
		hd.forget(c)
	}
	clear(hd.queue[len(kept):])
	hd.queue = kept
}
