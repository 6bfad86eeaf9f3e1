// Package load is the end-user request plane: an open-loop load engine
// that turns the station simulation into a service with millions of
// simulated users, so recovery can be scored in the currency users
// actually experience — failed and slow requests — instead of raw MTTR
// (ROADMAP item 2; "End-User Effects of Microreboots in Three-Tiered
// Internet Systems", PAPERS.md).
//
// # Open loop
//
// The engine is strictly open-loop: every cohort's arrival process is a
// pure function of (trial seed, cohort index), drawn from its own
// SplitMix64-derived RNG stream, and arrivals fire whether or not earlier
// requests completed. A 12 s process restart therefore shows up as
// thousands of blown deadlines — the requests users would have issued
// during the outage — not as one slow sample, which is the
// coordinated-omission trap closed-loop drivers fall into. Latency is
// accounted from the *intended* arrival instant, and failed requests are
// recorded at their timeout, so the latency histogram tells the
// user-visible truth under faults.
//
// # Zero allocation
//
// Request records live in a slot-arena with generation counters (the sim
// kernel's own recycling idiom); request envelopes come from the process
// manager's xmlcmd.Pool and return through the fabric; deadline events are
// pooled and generation-checked instead of cancelled. In steady state
// issuing, serving and retiring a request allocates nothing, pinned by
// TestEngineSteadyStateAllocs.
//
// # Request classes
//
// Traffic maps onto the real station components, not a synthetic echo:
// pass-scheduling requests drive the tracker ("point" → str), telemetry
// requests drive the tuner cascade ("tune" → rtu, which forwards to the
// radio front end), and federation commands drive the front-end driver
// ("radio-tune" → fedr). Replies are the components' own acks, routed
// back over the two-hop bus — so a dead broker, a restarting component or
// a chaos-degraded link harms requests exactly the way it would harm
// users.
package load

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/runner"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Gate is the bus address of the request gateway — the component that
// terminates the client side of every simulated request.
const Gate = "gate"

// Deadline is how long a user waits for the ack before the request fails:
// 5× the two-hop round trip. A timed-out request is never re-sent.
const Deadline = 100 * time.Millisecond

// SlowAfter classifies a success as "slow" when its latency exceeds it.
const SlowAfter = Deadline / 2

// Class selects which station traffic a cohort issues.
type Class uint8

// Request classes, mapped onto real station components.
const (
	// ClassPass is pass scheduling: antenna-pointing commands served by
	// the tracker (str).
	ClassPass Class = iota
	// ClassTelemetry is the tuner cascade: tune commands served by rtu
	// (which forwards radio-tune downstream, exercising rtu→fedr→pbcom).
	ClassTelemetry
	// ClassFederation is federation commands: radio-tune served by fedr.
	ClassFederation
	numClasses
)

var classNames = [numClasses]string{"pass", "telemetry", "federation"}

// String names the class ("pass", "telemetry", "federation").
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// target returns the bus address serving this class.
func (c Class) target() string {
	switch c {
	case ClassPass:
		return station.STR
	case ClassTelemetry:
		return station.RTU
	default:
		return station.Fedr
	}
}

// command returns the command name this class issues.
func (c Class) command() string {
	switch c {
	case ClassPass:
		return "point"
	case ClassTelemetry:
		return "tune"
	default:
		return "radio-tune"
	}
}

// Cohort describes one user population issuing one class of traffic.
type Cohort struct {
	// Class is the request class (target component + command).
	Class Class
	// Users is the population size; each request is attributed to one
	// user, and that user's session breaks when the request fails.
	Users int
	// Rate is the cohort's aggregate arrival rate in requests/s.
	Rate float64
	// Poisson selects exponential inter-arrival times; false means a
	// constant-rate (isochronous) schedule.
	Poisson bool
}

func (c *Cohort) withDefaults() Cohort {
	out := *c
	if out.Users <= 0 {
		out.Users = 1
	}
	return out
}

// Config parameterises an Engine.
type Config struct {
	// Seed derives every cohort's arrival and user-pick RNG stream (via
	// runner.SubSeed), making the whole load a pure function of the seed.
	Seed int64
	// Cohorts is the traffic mix. At least one is required.
	Cohorts []Cohort
	// MaxInFlight caps the request-record arena. Zero sizes it from the
	// traffic mix: rate × Deadline × 1.5 summed over cohorts. Arrivals
	// that find the arena full are shed — counted as failed without ever
	// reaching the bus, exactly like a client-side connection-queue
	// overflow.
	MaxInFlight int
}

// Stats is the engine's cumulative user-harm accounting. OK/Slow/Failed
// partition completed requests; Slow counts are also OK (a slow success).
type Stats struct {
	Issued    uint64 // requests entered (one per arrival, shed included)
	Attempts  uint64 // messages actually sent (one per request not shed)
	OK        uint64 // completed within their deadline
	Slow      uint64 // subset of OK slower than SlowAfter
	Failed    uint64 // timed out, or the service NAKed
	Shed      uint64 // subset of Failed: arena full, never sent
	Retries   uint64 // always 0: a timed-out request is never re-sent
	StaleAcks uint64 // acks that arrived after their request was retired

	// BrokenUsers is the instantaneous count of users whose last request
	// failed and who have not succeeded since.
	BrokenUsers int
	// BrokenUserSeconds integrates BrokenUsers over virtual time: the
	// campaign's user-visible downtime in user-seconds.
	BrokenUserSeconds float64
}

// record is one in-flight request in the slot arena.
type record struct {
	gen      uint32
	active   bool
	cohort   int16
	user     int32
	intended int64 // arrival instant (kernel ns) latency is measured from
}

// Engine drives the configured traffic mix through one station's fabric.
// Like everything else in the simulation it is dispatch-context only.
type Engine struct {
	clk  clock.Clock
	kern *sim.Kernel
	bus  *bus.Sim
	mgr  *proc.Manager

	cohorts []*cohortState

	records []record
	freeRec []int32

	hist    metrics.Hist
	stats   Stats
	stopped bool

	// session bookkeeping: broken-user integration over virtual time
	// (kernel ns).
	lastIntegrate int64
}

// cohortState is one cohort's runtime: RNG stream, arrival event and
// session bitmap.
type cohortState struct {
	cfg Cohort
	idx int16
	eng *Engine

	rng       *rand.Rand
	meanGapNs float64
	arrival   arrivalEvent
	stopped   bool

	// dlQ is the cohort's deadline queue. Every request times out exactly
	// Deadline after it is sent, so due times are non-decreasing and one
	// self-rescheduling pump event sweeps them in FIFO order. Completed
	// requests are not removed — their entries go stale (generation
	// mismatch) and the sweep skips them — which keeps the kernel heap
	// free of the ~rate×deadline pending timers that would otherwise
	// dominate simulation cost at high request rates.
	dlQ    []dlEntry
	dlHead int
	dlOn   bool
	dl     dlPump

	// sessionDown marks users whose session is currently broken (bitmap;
	// a million users is 125 KB).
	sessionDown []uint64

	// vals cycles precomputed request parameters so steady-state requests
	// never format floats.
	vals [][]xmlcmd.Param
	vi   int
}

// NewEngine builds an engine over a station's kernel-clock, fabric and
// process manager, and registers (but does not start) the gate component.
// Call Start after the station is booted.
func NewEngine(clk clock.Clock, b *bus.Sim, mgr *proc.Manager, cfg Config) (*Engine, error) {
	if len(cfg.Cohorts) == 0 {
		return nil, fmt.Errorf("load: no cohorts configured")
	}
	ks, ok := clk.(clock.Sim)
	if !ok {
		// The engine's zero-alloc bookkeeping (slot arena, FIFO deadline
		// queues) is built on kernel virtual time; the real-time runtime
		// drives load through the TCP pump instead.
		return nil, fmt.Errorf("load: engine requires the simulation kernel clock")
	}
	e := &Engine{
		clk:  clk,
		kern: ks.K,
		bus:  b,
		mgr:  mgr,
	}
	var inflight float64
	for i := range cfg.Cohorts {
		cc := cfg.Cohorts[i].withDefaults()
		if cc.Rate <= 0 {
			return nil, fmt.Errorf("load: cohort %d has rate %v", i, cc.Rate)
		}
		cs := &cohortState{
			cfg:         cc,
			idx:         int16(i),
			eng:         e,
			rng:         rand.New(rand.NewSource(runner.SubSeed(cfg.Seed, uint64(i)))),
			meanGapNs:   float64(time.Second) / cc.Rate,
			sessionDown: make([]uint64, (cc.Users+63)/64),
		}
		cs.arrival.c = cs
		cs.dl.c = cs
		cs.buildVals()
		e.cohorts = append(e.cohorts, cs)
		inflight += cc.Rate * Deadline.Seconds() * 1.5
	}
	max := cfg.MaxInFlight
	if max <= 0 {
		max = int(inflight)
		if max < 1<<12 {
			max = 1 << 12
		}
		if max > 1<<22 {
			max = 1 << 22
		}
	}
	e.records = make([]record, max)
	e.freeRec = make([]int32, max)
	for i := range e.freeRec {
		// LIFO free list popping from the tail: slot 0 on top keeps the
		// warm working set dense.
		e.freeRec[i] = int32(max - 1 - i)
	}
	if err := mgr.Register(Gate, func() proc.Handler { return gateHandler{e} }); err != nil {
		return nil, fmt.Errorf("load: register gate: %w", err)
	}
	return e, nil
}

// buildVals precomputes a cycle of request parameters spanning each
// class's realistic range, so issuing neither formats nor allocates.
func (c *cohortState) buildVals() {
	const n = 64
	c.vals = make([][]xmlcmd.Param, n)
	for i := range c.vals {
		switch c.cfg.Class {
		case ClassPass:
			az := c.rng.Float64() * 6.283185307179586
			el := c.rng.Float64() * 1.5707963267948966
			c.vals[i] = []xmlcmd.Param{clientNum("azRad", az), clientNum("elRad", el)}
		default:
			// Telemetry and federation both carry a frequency around the
			// UHF amateur band.
			f := 435e6 + c.rng.Float64()*3e6
			c.vals[i] = []xmlcmd.Param{clientNum("freqHz", f)}
		}
	}
}

// clientNum is the number a real client would send for f — six decimals,
// not a shortest-round-trip float64 — as the server reads it.
func clientNum(key string, f float64) xmlcmd.Param {
	six, err := strconv.ParseFloat(strconv.FormatFloat(f, 'f', 6, 64), 64)
	if err != nil {
		panic(err) // a formatted finite float parses
	}
	p, err := xmlcmd.Num(key, six)
	if err != nil {
		panic(err) // f is drawn from a finite range
	}
	return p
}

// Start brings up the gate component and begins every cohort's arrival
// process. The station should already be serving; requests issued before
// the target component is ready simply fail their deadlines, which is the
// correct user experience of a cold service.
func (e *Engine) Start() error {
	if err := e.mgr.Start(Gate); err != nil {
		return fmt.Errorf("load: start gate: %w", err)
	}
	e.lastIntegrate = e.kern.NowNs()
	for _, c := range e.cohorts {
		c.scheduleNext()
	}
	return nil
}

// Stop halts new arrivals. In-flight requests keep resolving through
// their deadlines; run the kernel for Deadline to drain before reading
// final stats.
func (e *Engine) Stop() {
	e.stopped = true
	for _, c := range e.cohorts {
		c.stopped = true
	}
}

// Stats snapshots the cumulative accounting with broken-user time
// integrated up to the current instant.
func (e *Engine) Stats() Stats {
	e.integrate()
	return e.stats
}

// Hist returns the latency histogram accumulated so far (intended-start
// accounting, failed requests recorded at their timeout).
func (e *Engine) Hist() *metrics.Hist { return &e.hist }

// InFlight reports the number of active request records.
func (e *Engine) InFlight() int { return len(e.records) - len(e.freeRec) }

// integrate folds broken-user time up to now into the accumulator.
func (e *Engine) integrate() {
	now := e.kern.NowNs()
	if dt := now - e.lastIntegrate; dt > 0 && e.stats.BrokenUsers > 0 {
		e.stats.BrokenUserSeconds += float64(e.stats.BrokenUsers) * float64(dt) / float64(time.Second)
	}
	e.lastIntegrate = now
}

// arrivalEvent is a cohort's self-rescheduling arrival chain: one event
// object per cohort, reused forever.
type arrivalEvent struct {
	c *cohortState
}

func (a *arrivalEvent) Fire() {
	c := a.c
	if c.stopped {
		return
	}
	c.eng.issue(c)
	c.scheduleNext()
}

func (c *cohortState) scheduleNext() {
	if c.stopped {
		return
	}
	gap := c.meanGapNs
	if c.cfg.Poisson {
		gap *= c.rng.ExpFloat64()
	}
	c.eng.kern.Schedule(time.Duration(gap), &c.arrival)
}

// seqFor packs a record's identity into the wire sequence number; the
// ack's OfSeq round-trips it.
func seqFor(slot int32, gen uint32) uint64 {
	return uint64(gen)<<32 | uint64(uint32(slot))
}

// issue admits one arrival: acquire a record, mint a pooled request and
// send it with a pooled deadline. The entire path is allocation-free once
// the pools are warm, and the kernel instant is read once, so the hot path
// never builds a time.Time.
func (e *Engine) issue(c *cohortState) {
	e.stats.Issued++
	n := len(e.freeRec)
	if n == 0 {
		// Arena full: shed at the client edge, before the bus.
		e.stats.Failed++
		e.stats.Shed++
		user := int32(c.rng.Intn(c.cfg.Users))
		e.breakSession(c, user)
		return
	}
	slot := e.freeRec[n-1]
	e.freeRec = e.freeRec[:n-1]
	rec := &e.records[slot]
	rec.gen++
	rec.active = true
	rec.cohort = c.idx
	rec.user = int32(c.rng.Intn(c.cfg.Users))
	now := e.kern.NowNs()
	rec.intended = now
	e.stats.Attempts++
	v := c.vals[c.vi]
	c.vi++
	if c.vi == len(c.vals) {
		c.vi = 0
	}
	class := c.cfg.Class
	e.bus.Send(e.mgr.Pool().Command(Gate, class.target(), seqFor(slot, rec.gen), class.command(), v...))
	e.armDeadline(c, slot, rec.gen, now)
}

// dlEntry is one armed request deadline (due in kernel ns). Entries are
// never cancelled: completion leaves them stale (generation mismatch) and
// the sweep drops them — the kernel's own slot/gen idiom, applied to a
// FIFO queue.
type dlEntry struct {
	due  int64
	slot int32
	gen  uint32
}

// armDeadline appends the request's timeout to the cohort's queue and arms
// the pump if it is asleep. Due times are monotone because the deadline is
// a constant and virtual time never goes backwards.
func (e *Engine) armDeadline(c *cohortState, slot int32, gen uint32, now int64) {
	if c.dlHead > 1024 && c.dlHead*2 >= len(c.dlQ) {
		n := copy(c.dlQ, c.dlQ[c.dlHead:])
		c.dlQ = c.dlQ[:n]
		c.dlHead = 0
	}
	c.dlQ = append(c.dlQ, dlEntry{
		due:  now + int64(Deadline),
		slot: slot,
		gen:  gen,
	})
	if !c.dlOn {
		c.dlOn = true
		e.kern.Schedule(Deadline, &c.dl)
	}
}

// dlPump sweeps a cohort's deadline queue. Stale entries — requests that
// completed before their deadline, the overwhelming majority under a
// healthy service — are dropped eagerly whenever the pump is awake, so in
// steady state the pump wakes roughly once per deadline window, not once
// per request: the sweep costs ~zero kernel events until something
// actually times out.
type dlPump struct{ c *cohortState }

func (p *dlPump) Fire() {
	c := p.c
	e := c.eng
	now := e.kern.NowNs()
	for c.dlHead < len(c.dlQ) {
		ent := c.dlQ[c.dlHead]
		rec := &e.records[ent.slot]
		if !rec.active || rec.gen != ent.gen {
			c.dlHead++ // resolved before its deadline: drop without waking
			continue
		}
		if ent.due > now {
			e.kern.Schedule(time.Duration(ent.due-now), p)
			return
		}
		c.dlHead++
		e.expire(c, ent.slot, rec, now)
	}
	c.dlQ = c.dlQ[:0]
	c.dlHead = 0
	c.dlOn = false
}

// expire resolves one due, still-live deadline: the user saw a failure.
func (e *Engine) expire(c *cohortState, slot int32, rec *record, now int64) {
	// The full wait — intended start to timeout — goes into the latency
	// record, so blown deadlines dominate the tail exactly as users
	// experienced them.
	e.hist.Record(time.Duration(now - rec.intended))
	e.stats.Failed++
	e.breakSession(c, rec.user)
	e.retire(slot, rec)
}

// onAck completes the record a gate ack names, if it is still current.
func (e *Engine) onAck(m *xmlcmd.Message) {
	of := m.Ack.OfSeq
	slot := int32(uint32(of))
	gen := uint32(of >> 32)
	if slot < 0 || int(slot) >= len(e.records) {
		e.stats.StaleAcks++
		return
	}
	rec := &e.records[slot]
	if !rec.active || rec.gen != gen {
		// The request was already retired (failed at deadline, or an
		// earlier duplicate ack won). Late acks are the receipts of work
		// the service did after the user gave up.
		e.stats.StaleAcks++
		return
	}
	c := e.cohorts[rec.cohort]
	lat := time.Duration(e.kern.NowNs() - rec.intended)
	e.hist.Record(lat)
	if m.Ack.OK {
		e.stats.OK++
		if lat > SlowAfter {
			e.stats.Slow++
		}
		e.restoreSession(c, rec.user)
	} else {
		e.stats.Failed++
		e.breakSession(c, rec.user)
	}
	e.retire(slot, rec)
}

func (e *Engine) retire(slot int32, rec *record) {
	rec.active = false
	e.freeRec = append(e.freeRec, slot)
}

// breakSession marks a user's session broken, starting their downtime
// clock.
func (e *Engine) breakSession(c *cohortState, user int32) {
	w, b := user>>6, uint64(1)<<(uint(user)&63)
	if c.sessionDown[w]&b != 0 {
		return
	}
	e.integrate()
	c.sessionDown[w] |= b
	e.stats.BrokenUsers++
}

// restoreSession repairs a user's session on a successful request.
func (e *Engine) restoreSession(c *cohortState, user int32) {
	w, b := user>>6, uint64(1)<<(uint(user)&63)
	if c.sessionDown[w]&b == 0 {
		return
	}
	e.integrate()
	c.sessionDown[w] &^= b
	e.stats.BrokenUsers--
}

// gateHandler terminates the client side on the bus: instantly ready,
// absorbs acks into the engine, answers pings like any component.
type gateHandler struct {
	e *Engine
}

func (g gateHandler) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }

func (g gateHandler) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindAck:
		g.e.onAck(m)
	case xmlcmd.KindPing:
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}
