package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/ckpt"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Probes time one public function of one layer from outside, on the
// workload's own inputs where the function takes any. They run only in a
// traced run, after the workload, and feed the ledger — never an
// end-to-end metric.

// probeNs times fn: five batches of n calls, the median batch's
// nanoseconds per call.
func probeNs(n int, fn func()) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// probeAllocs counts heap allocations per call of fn over n calls.
func probeAllocs(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// ackFor is the acknowledgement a component sends for a mix command.
func ackFor(m *xmlcmd.Message) *xmlcmd.Message {
	return xmlcmd.NewAck(m.To, m.From, 1, m.Seq, true, "")
}

// probeCodec: xmlcmd encode/decode over the live mix (commands and their
// acks, as every request puts both on the wire).
func probeCodec(r *result, mix []*xmlcmd.Message) {
	msgs := make([]*xmlcmd.Message, 0, 2*len(mix))
	for _, m := range mix {
		msgs = append(msgs, m, ackFor(m))
	}
	var wire [][]byte
	var bytes int
	for _, m := range msgs {
		b, err := xmlcmd.AppendEncode(nil, m)
		if err != nil {
			continue
		}
		wire = append(wire, b)
		bytes += len(b)
	}
	buf := make([]byte, 0, 512)
	i := 0
	enc := func() {
		buf, _ = xmlcmd.AppendEncode(buf[:0], msgs[i%len(msgs)])
		i++
	}
	var into xmlcmd.Message
	j := 0
	dec := func() {
		_ = xmlcmd.DecodeInto(wire[j%len(wire)], &into)
		j++
	}
	r.setv("xmlcmd.encode_ns", "ns", probeNs(20000, enc), 100000)
	r.setv("xmlcmd.decode_ns", "ns", probeNs(20000, dec), 100000)
	r.setv("xmlcmd.allocs_per_msg", "allocs", probeAllocs(20000, func() { enc(); dec() }), 20000)
	r.setv("xmlcmd.wire_bytes_per_msg", "bytes", float64(bytes)/float64(len(wire)), len(wire))
}

// loopReader replays one encoded frame stream forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// probeFrames: bus.FrameWriter / FrameReader on the mix, without a
// socket, and the shard skew of the mix's destinations.
func probeFrames(r *result, mix []*xmlcmd.Message) {
	var fw bus.FrameWriter
	i := 0
	r.setv("bus.frame_write_ns", "ns", probeNs(20000, func() {
		_ = fw.WriteFrame(io.Discard, mix[i%len(mix)])
		i++
	}), 100000)
	var stream bytes.Buffer
	for _, m := range mix {
		_ = fw.WriteFrame(&stream, m)
	}
	lr := &loopReader{data: stream.Bytes()}
	var fr bus.FrameReader
	var into xmlcmd.Message
	r.setv("bus.frame_read_ns", "ns", probeNs(20000, func() { _ = fr.ReadFrameInto(lr, &into) }), 100000)

	counts := make([]int, 2)
	for _, m := range mix {
		counts[bus.ShardFor(m.To, 2)]++
	}
	hi, lo := counts[0], counts[1]
	if lo > hi {
		hi, lo = lo, hi
	}
	r.setv("bus.shard_skew", "ratio", float64(hi)/float64(len(mix))*2, len(mix))
}

// probeDispatcher: one rt.Dispatcher round trip (Post → run → wake).
func probeDispatcher(r *result) {
	d := rt.NewDispatcher()
	defer d.Stop()
	r.setv("rt.dispatch_ns", "ns", probeNs(5000, func() { d.Call(func() {}) }), 25000)
}

// nullHandler becomes ready at once and ignores every message.
type nullHandler struct{}

func (nullHandler) Start(ctx proc.Context)                    { ctx.After(0, ctx.Ready) }
func (nullHandler) Receive(_ proc.Context, _ *xmlcmd.Message) {}

// probeSim: the kernel, timers and proc.Deliver.
func probeSim(r *result) {
	k := sim.New(1)
	r.setv("sim.timer_stop_ns", "ns", probeNs(20000, func() {
		t := k.AfterFunc(time.Second, func() {})
		t.Stop()
	}), 100000)

	k = sim.New(1)
	mgr := proc.NewManager(clock.Sim{K: k}, k.Rand(), trace.NewLog())
	_ = mgr.Register("null", func() proc.Handler { return nullHandler{} })
	_ = mgr.Start("null")
	_ = k.RunFor(time.Second)
	m := xmlcmd.NewCommand("x", "null", 1, "noop")
	r.setv("proc.deliver_ns", "ns", probeNs(50000, func() { mgr.Deliver(m) }), 250000)
}

// probeCore: one oracle decision per policy on tree IVm's shape.
func probeCore(r *result) error {
	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return err
	}
	tree := trees["IV"]
	esc := core.EscalatingOracle{}
	r.setv("core.oracle_choose_ns", "ns", probeNs(20000, func() { _, _ = esc.Choose(tree, "ses", nil, 1) }), 100000)
	v2 := core.NewCostAwareOracle(core.CostAwareConfig{})
	r.setv("core.oracle_v2_choose_ns", "ns", probeNs(20000, func() { _, _ = v2.Choose(tree, "ses", nil, 1) }), 100000)
	return nil
}

// probeStore: the crash-only store and the checkpoint plane.
func probeStore(r *result) error {
	k := sim.New(1)
	clk := clock.Sim{K: k}
	st := store.New(clk, store.Options{})
	defer st.Close()
	lease, err := st.Acquire("track/target", "str", time.Hour)
	if err != nil {
		return err
	}
	val := store.AppendFloat64(store.AppendFloat64(nil, 1.25), 0.5)
	r.setv("store.put_ns", "ns", probeNs(20000, func() { _, _ = lease.Put(val) }), 100000)
	r.setv("store.get_ns", "ns", probeNs(20000, func() { _, _, _ = lease.Get() }), 100000)
	r.setv("store.renew_ns", "ns", probeNs(20000, func() { _ = lease.Renew(time.Hour) }), 100000)
	for _, key := range []string{"session/epoch", "session/fedr"} {
		if l, err := st.Acquire(key, "owner", time.Hour); err == nil {
			_, _ = l.Put(val)
		}
	}
	r.setv("store.snapshot_us", "us", probeNs(5000, func() { _ = st.Snapshot() })/1e3, 25000)

	ck := ckpt.New(clk, st, ckpt.Options{Keys: map[string][]string{"str.track": {"track/target"}}})
	defer ck.Close()
	r.setv("ckpt.snapshot_us", "us", probeNs(5000, func() { ck.Take() })/1e3, 25000)
	var model time.Duration
	r.setv("ckpt.restore_us", "us", probeNs(5000, func() { model, _ = ck.Restore("str.track") })/1e3, 25000)
	r.setv("ckpt.restore_model_s", "station-s", model.Seconds(), 1)
	return nil
}

// probeMeasurement: the layers the experiments record through.
func probeMeasurement(r *result, injects int) error {
	var h, h2 metrics.Hist
	d := 17 * time.Millisecond
	r.setv("metrics.hist_record_ns", "ns", probeNs(50000, func() { h.Record(d); d += time.Microsecond }), 250000)
	h2 = h
	r.setv("metrics.hist_merge_ns", "ns", probeNs(2000, func() { h.Merge(&h2) }), 10000)
	var s metrics.Sample
	r.setv("metrics.sample_add_ns", "ns", probeNs(50000, func() { s.Add(d) }), 250000)

	log := trace.NewLog()
	ev := trace.Event{Kind: trace.Note, Component: "rtu"}
	n := 0
	r.setv("trace.append_ns", "ns", probeNs(20000, func() {
		log.Append(ev)
		if n++; n%4096 == 0 {
			log.Reset()
		}
	}), 100000)

	var c obs.Counter
	r.setv("obs.counter_inc_ns", "ns", probeNs(50000, c.Inc), 250000)
	reg := obs.NewRegistry()
	bus.RegisterMetrics(reg)
	r.setv("obs.scrape_us", "us", probeNs(500, func() { _, _ = reg.WritePrometheus(io.Discard) })/1e3, 2500)

	// fault.Board.Inject on a booted station (one fresh system per call).
	var inject []float64
	for i := 0; i < injects; i++ {
		sys, err := mercury.NewSystem(mercury.Config{Seed: int64(i), TreeName: "IV"})
		if err != nil {
			return err
		}
		if err := sys.Boot(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := sys.Inject(mercury.Fault{Component: "rtu"}); err != nil {
			return err
		}
		inject = append(inject, float64(time.Since(t0).Nanoseconds()))
	}
	r.set("fault.inject_ns", "ns", inject)
	return nil
}
