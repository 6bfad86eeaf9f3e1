package station

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/recursive-restart/mercury/internal/antenna"
	"github.com/recursive-restart/mercury/internal/orbit"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/radio"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Ops is the bus address of the operations console / telemetry sink.
const Ops = "ops"

// sesComponent is the satellite estimator: it computes satellite position,
// antenna pointing angles and Doppler-corrected radio frequencies, and
// commands str and rtu accordingly. It resynchronises with str at startup.
type sesComponent struct {
	syncCore
	observer *orbit.Observer // fixed satellite/station geometry, shared by all incarnations
}

func (c *sesComponent) Start(ctx proc.Context) {
	c.ctx = ctx
	if c.microArm(ctx) {
		c.microHook(SubCache, c.reloadEpoch)
	}
	d := c.startupDelay(ctx, SesStartup)
	ctx.Schedule(d, (*waitSync)(&c.syncCore))
	ctx.Schedule(TelemetryPeriod, (*estimation)(c))
}

// estimation drives the pass workload once ready: every telemetry period,
// point the antenna and retune the radio for Doppler. In micro mode the
// workload pauses while the estimator or session-cache subcomponent is
// crashed — the container shell keeps serving. The tick re-arms itself.
type estimation sesComponent

func (e *estimation) Fire() {
	c := (*sesComponent)(e)
	if c.ready && c.subOK(SubEst) && c.subOK(SubCache) {
		c.estimate(c.ctx)
	}
	c.ctx.Schedule(TelemetryPeriod, e)
}

func (c *sesComponent) estimate(ctx proc.Context) {
	look, err := c.observer.LookAt(ctx.Now())
	if err != nil {
		c.warnings++
		return
	}
	az, errA := xmlcmd.Num("azRad", look.AzimuthRad)
	el, errE := xmlcmd.Num("elRad", look.ElevationRad)
	freq, errF := xmlcmd.Num("freqHz", carrierHz+look.DopplerHz(carrierHz))
	if errA != nil || errE != nil || errF != nil {
		c.warnings++
		return
	}
	pool := ctx.Pool()
	ctx.Send(pool.Command(SES, STR, c.nextSeq(), "point", az, el))
	ctx.Send(pool.Command(SES, RTU, c.nextSeq(), "tune", freq))
	ctx.Send(pool.Telemetry(SES, Ops, c.nextSeq(), "elevation_rad",
		look.ElevationRad, ctx.Now()))
}

func (c *sesComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindSync:
		c.handleSync(ctx, m)
	case xmlcmd.KindSyncAck:
		c.handleSyncAck(ctx, m)
	default:
		c.handleCommon(ctx, m)
	}
}

// strComponent is the satellite tracker: it drives the antenna toward the
// pointing targets ses computes and reports whether the link geometry
// holds. It resynchronises with ses at startup.
type strComponent struct {
	syncCore
	ant      *antenna.Model
	targetAz float64
	targetEl float64
	haveTgt  bool

	// track is the externalized antenna target in micro mode; nil classic.
	track *store.Cell[trackTarget]
}

func (c *strComponent) Start(ctx proc.Context) {
	c.ctx = ctx
	if c.microArm(ctx) {
		c.microHook(SubCache, c.reloadEpoch)
		c.microHook(SubTrack, c.reloadTrack)
	}
	if c.store != nil {
		if l, err := c.store.Acquire(KeyTrackTarget, STR, sessionTTL); err == nil {
			c.microLease(ctx, l)
			c.track = store.NewCell(l, trackCodec())
			// A target surviving a process restart resumes tracking
			// immediately instead of waiting for ses's next point command.
			c.reloadTrack()
		}
	}
	d := c.startupDelay(ctx, StrStartup)
	ctx.Schedule(d, (*waitSync)(&c.syncCore))
	ctx.Schedule(trackPeriod, (*tracking)(c))
}

// reloadTrack is the track subcomponent's reattach path: re-adopt the
// externalized antenna target.
func (c *strComponent) reloadTrack() {
	if c.track == nil {
		return
	}
	if t, ok := c.track.Load(); ok {
		c.targetAz, c.targetEl, c.haveTgt = t.az, t.el, true
	}
}

// trackPeriod is how often str steps the antenna.
const trackPeriod = time.Second

// tracking steps the antenna once a trackPeriod while ready (and, in micro
// mode, while the tracking subcomponents are whole). The tick re-arms
// itself.
type tracking strComponent

func (e *tracking) Fire() {
	c := (*strComponent)(e)
	ctx := c.ctx
	if c.ready && c.haveTgt && c.subOK(SubTrack) && c.subOK(SubCache) {
		c.ant.Step(c.targetAz, c.targetEl, trackPeriod)
		onTarget := 0.0
		if c.ant.OnTarget(c.targetAz, c.targetEl) {
			onTarget = 1
		}
		ctx.Send(ctx.Pool().Telemetry(STR, Ops, c.nextSeq(), "on_target",
			onTarget, ctx.Now()))
	}
	ctx.Schedule(trackPeriod, e)
}

// Target reports the pointing target str holds, if it has one. Like every
// handler method it runs on the dispatch context.
func (c *strComponent) Target() (az, el float64, ok bool) {
	return c.targetAz, c.targetEl, c.haveTgt
}

func (c *strComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindSync:
		c.handleSync(ctx, m)
	case xmlcmd.KindSyncAck:
		c.handleSyncAck(ctx, m)
	case xmlcmd.KindCommand:
		if m.Command.Name != "point" || !c.ready || !c.subOK(SubTrack) {
			return
		}
		az, errA := m.Command.FloatParam("azRad")
		el, errE := m.Command.FloatParam("elRad")
		if errA != nil || errE != nil {
			c.warnings++
			return
		}
		if !(az >= 0 && az < 2*math.Pi && el >= -math.Pi/2 && el <= math.Pi/2) {
			// A look angle no antenna can take is refused like a bad tune:
			// it is neither tracked nor saved.
			c.warnings++
			ctx.Send(ctx.Pool().Ack(STR, m.From, c.nextSeq(), m.Seq, false, "pointing out of range"))
			return
		}
		c.targetAz, c.targetEl, c.haveTgt = az, el, true
		if c.track != nil {
			_ = c.track.Save(trackTarget{az: az, el: el})
		}
		ctx.Send(ctx.Pool().Ack(STR, m.From, c.nextSeq(), m.Seq, true, ""))
	default:
		c.handleCommon(ctx, m)
	}
}

// rtuComponent is the radio tuner: it accepts high-level tune commands
// from ses and forwards them to the radio front end (fedrcom before the
// split, fedr after).
type rtuComponent struct {
	base
	front      string // the component that owns the radio: Fedrcom or Fedr
	lastFreqHz float64
}

func (c *rtuComponent) Start(ctx proc.Context) {
	c.ctx = ctx
	ctx.Schedule(c.startupDelay(ctx, RtuStartup), (*readyEvent)(&c.base))
}

// FrequencyHz reports the frequency rtu last accepted a tune to.
func (c *rtuComponent) FrequencyHz() float64 { return c.lastFreqHz }

func (c *rtuComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindCommand:
		if m.Command.Name != "tune" || !c.ready {
			return
		}
		f, err := m.Command.FloatParam("freqHz")
		if err != nil {
			c.warnings++
			return
		}
		c.lastFreqHz = f
		freq, _ := m.Command.Lookup("freqHz")
		ctx.Send(ctx.Pool().Command(RTU, c.front, c.nextSeq(), "radio-tune", freq))
		ctx.Send(ctx.Pool().Ack(RTU, m.From, c.nextSeq(), m.Seq, true, ""))
	default:
		c.handleCommon(ctx, m)
	}
}

// fedrcomComponent is the original monolithic bidirectional proxy between
// XML commands and low-level radio commands. It owns the serial port, so a
// restart pays the full hardware negotiation (high MTTR); its command
// translator is the unstable half (low MTTF) — the bad combination the
// split fixes.
type fedrcomComponent struct {
	tuner
}

// tuner is the radio-owning core shared by fedrcom and pbcom: the serial
// port, the transceiver, and the completion of a tune tuneTime after it
// began (tuned: several tunes may be in flight, and the event carries no
// per-tune state).
type tuner struct {
	base
	port *radio.SerialPort
	xcvr *radio.Transceiver
}

// start opens the serial port and, the calibrated startup later (the
// negotiation plus translator init), finishes it and becomes ready.
func (t *tuner) start(ctx proc.Context, startup time.Duration) {
	t.ctx = ctx
	if err := t.port.BeginOpen(); err != nil {
		ctx.Fail("serial port open: " + err.Error())
		return
	}
	ctx.Schedule(t.startupDelay(ctx, startup), (*negotiated)(t))
}

// negotiated ends the serial negotiation a tuner's start began.
type negotiated tuner

func (e *negotiated) Fire() {
	t := (*tuner)(e)
	if err := t.port.FinishNegotiation(); err != nil {
		t.ctx.Fail("serial negotiation: " + err.Error())
		return
	}
	t.becomeReady()
}

// tuned completes a retune and reports the lock.
type tuned tuner

func (e *tuned) Fire() {
	t := (*tuner)(e)
	ctx := t.ctx
	t.xcvr.FinishTune()
	locked := 0.0
	if t.xcvr.Locked() {
		locked = 1
	}
	ctx.Send(ctx.Pool().Telemetry(ctx.Name(), Ops, t.nextSeq(), "radio_locked",
		locked, ctx.Now()))
}

// FrequencyHz reports the frequency the radio was last commanded to.
func (t *tuner) FrequencyHz() float64 { return t.xcvr.FrequencyHz() }

// applyTune starts a retune for a radio-tune command and acknowledges it;
// the lock telemetry follows once the tune completes.
func (t *tuner) applyTune(ctx proc.Context, m *xmlcmd.Message) {
	f, err := m.Command.FloatParam("freqHz")
	if err != nil {
		t.warnings++
		return
	}
	if err := t.xcvr.BeginTune(f); err != nil {
		t.warnings++
		ctx.Send(ctx.Pool().Ack(ctx.Name(), m.From, t.nextSeq(), m.Seq, false, err.Error()))
		return
	}
	ctx.Schedule(tuneTime, (*tuned)(t))
	ctx.Send(ctx.Pool().Ack(ctx.Name(), m.From, t.nextSeq(), m.Seq, true, ""))
}

// newTuner returns the radio core of a fresh incarnation: the process
// re-opens the device, so each gets a new serial-port model.
func newTuner(b base) tuner {
	port := radio.NewSerialPort()
	return tuner{base: b, port: port, xcvr: radio.NewTransceiver(port, radio.UHFAmateur)}
}

func (c *fedrcomComponent) Start(ctx proc.Context) { c.start(ctx, FedrcomStartup) }

func (c *fedrcomComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindCommand && m.Command.Name == "radio-tune" && c.ready {
		c.applyTune(ctx, m)
		return
	}
	c.handleCommon(ctx, m)
}

// pbcomComponent maps the serial port to the bus: simple and very stable,
// but slow to recover (hardware negotiation). It ages every time it loses
// the connection from fedr; enough losses kill it — the residual
// correlated failure after the split.
type pbcomComponent struct {
	tuner
	fedrInc  int // last connected fedr incarnation
	ageCount int
}

func (c *pbcomComponent) Start(ctx proc.Context) { c.start(ctx, PbcomStartup) }

func (c *pbcomComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindCommand && c.ready {
		switch m.Command.Name {
		case "connect":
			c.handleConnect(ctx, m)
			return
		case "radio-tune":
			c.applyTune(ctx, m)
			return
		}
	}
	c.handleCommon(ctx, m)
}

// handleConnect registers a fedr connection. Seeing a new fedr incarnation
// means the previous connection was severed; each severance ages pbcom
// (leaked sockets, stale buffers) until it eventually fails.
func (c *pbcomComponent) handleConnect(ctx proc.Context, m *xmlcmd.Message) {
	incStr, _ := m.Command.Param("incarnation")
	inc, err := strconv.Atoi(incStr)
	if err != nil {
		c.warnings++
		return
	}
	if c.fedrInc != 0 && inc != c.fedrInc {
		c.ageCount++
		c.ageScore = float64(c.ageCount) / pbcomAgeLimit
		c.warnings++
		if c.ageCount >= pbcomAgeLimit {
			ctx.Fail(fmt.Sprintf("aged out after %d severed fedr connections", c.ageCount))
			return
		}
	}
	c.fedrInc = inc
	ctx.Send(ctx.Pool().Ack(Pbcom, m.From, c.nextSeq(), m.Seq, true, ""))
}

// fedrComponent is the front-end driver-radio after the split: the buggy,
// fast-restarting command translator. It connects to pbcom over the bus at
// startup and becomes ready once pbcom acknowledges the connection.
type fedrComponent struct {
	base
	connected  bool
	connectSeq uint64

	// session is the externalized pbcom-connection session in micro mode;
	// nil classic.
	session *store.Cell[int64]
}

func (c *fedrComponent) Start(ctx proc.Context) {
	c.ctx = ctx
	c.microArm(ctx)
	ctx.Schedule(c.startupDelay(ctx, FedrStartup), (*fedrInit)(c))
}

// fedrInit ends fedr's startup: reattach a surviving session, or connect.
type fedrInit fedrComponent

func (e *fedrInit) Fire() {
	c := (*fedrComponent)(e)
	if c.store != nil {
		if l, err := c.store.Acquire(KeyFedrSession, Fedr, sessionTTL); err == nil {
			c.microLease(c.ctx, l)
			c.session = store.NewCell(l, store.Int64Codec())
			if _, ok := c.session.Load(); ok {
				// A live session survived the restart: reattach without
				// a new connect handshake. pbcom never sees a severed
				// connection, so fedr restarts stop aging it.
				c.connected = true
				c.becomeReady()
				return
			}
		}
	}
	c.connectLoop()
}

// reconnect is connectLoop's retransmit.
type reconnect fedrComponent

func (e *reconnect) Fire() { (*fedrComponent)(e).connectLoop() }

// connectLoop (re)sends the connect request until pbcom acknowledges.
func (c *fedrComponent) connectLoop() {
	if c.connected {
		return
	}
	ctx := c.ctx
	c.connectSeq = c.nextSeq()
	ctx.Send(ctx.Pool().Command(Fedr, Pbcom, c.connectSeq, "connect",
		xmlcmd.Param{Key: "incarnation", Value: strconv.Itoa(ctx.Incarnation())}))
	ctx.Schedule(connectRetransmit, (*reconnect)(c))
}

func (c *fedrComponent) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindAck:
		if m.From == Pbcom && m.Ack.OfSeq == c.connectSeq && m.Ack.OK && !c.connected {
			c.connected = true
			if c.session != nil {
				// Persist the session so the next incarnation reattaches
				// instead of reconnecting (and re-aging pbcom).
				_ = c.session.Save(int64(ctx.Incarnation()))
			}
			c.becomeReady()
		}
	case xmlcmd.KindCommand:
		if m.Command.Name == "radio-tune" && c.ready && c.subOK(SubSession) {
			// Translate and forward to the port proxy.
			if _, err := m.Command.FloatParam("freqHz"); err != nil {
				c.warnings++
				return
			}
			freq, _ := m.Command.Lookup("freqHz")
			ctx.Send(ctx.Pool().Command(Fedr, Pbcom, c.nextSeq(), "radio-tune", freq))
			ctx.Send(ctx.Pool().Ack(Fedr, m.From, c.nextSeq(), m.Seq, true, ""))
		}
	default:
		c.handleCommon(ctx, m)
	}
}

// Collector is the operations console: a telemetry sink examples and
// experiments read link state from. It is infrastructure, not part of any
// restart tree.
type Collector struct {
	latest map[string]float64
	counts map[string]int
}

// NewCollector returns a factory producing a shared collector instance;
// call it once and keep the pointer to query state. Its maps are made on
// the first sample.
func NewCollector() *Collector { return &Collector{} }

// Handler adapts the collector to proc.Handler.
func (c *Collector) Handler() func() proc.Handler {
	return func() proc.Handler { return collectorHandler{c: c} }
}

// Latest returns the most recent value for a telemetry key.
func (c *Collector) Latest(key string) (float64, bool) {
	v, ok := c.latest[key]
	return v, ok
}

// Count returns how many samples arrived for a key.
func (c *Collector) Count(key string) int { return c.counts[key] }

type collectorHandler struct {
	c *Collector
}

func (h collectorHandler) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }

func (h collectorHandler) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindTelemetry:
		if h.c.latest == nil {
			h.c.latest, h.c.counts = make(map[string]float64), make(map[string]int)
		}
		h.c.latest[m.Telemetry.Key] = m.Telemetry.Value
		h.c.counts[m.Telemetry.Key]++
	case xmlcmd.KindPing:
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}
