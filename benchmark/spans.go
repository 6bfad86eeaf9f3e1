package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
)

// span is one recorded interval around a call into a layer, taken from
// the benchmark's own files (spans inside the program are a later
// change). Times are unix nanoseconds on the benchmark's clock for live
// runs and simulated nanoseconds for sim runs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Op      uint64 `json:"op"`
}

// spanRec holds a traced run's spans in memory until exit. It is
// pre-sized; spans beyond the cap are counted, not stored, so a traced
// run's cost per operation stays flat.
type spanRec struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the trace file (≈60 MB of JSON at the cap would be too
// much to write on every traced run; 1<<17 spans ≈ 12 MB).
const maxSpans = 1 << 17

func newSpanRec() *spanRec { return &spanRec{spans: make([]span, maxSpans)} }

// add records one span and returns its id (0 if dropped or not tracing).
func (r *spanRec) add(layer, name string, start, end int64, op uint64) int {
	return r.addChild(0, layer, name, start, end, op)
}

func (r *spanRec) addChild(parent int, layer, name string, start, end int64, op uint64) int {
	if r == nil {
		return 0
	}
	i := r.n.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i] = span{ID: int(i) + 1, Parent: parent, Layer: layer, Name: name, StartNs: start, EndNs: end, Op: op}
	return int(i) + 1
}

// timed runs fn inside a span.
func (r *spanRec) timed(layer, name string, op uint64, fn func()) {
	if r == nil {
		fn()
		return
	}
	t0 := time.Now().UnixNano()
	fn()
	r.add(layer, name, t0, time.Now().UnixNano(), op)
}

func (r *spanRec) count() int {
	n := int(r.n.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return n
}

// write stores the spans as benchmark/out/<workload>.trace.json.
func (r *spanRec) write(dir, workload string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, r.dropped.Load(), r.spans[:r.count()]}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// stamped is a trace.Log event with the time the benchmark saw it.
type stamped struct {
	at int64 // ns on the episode clock (wall for live, simulated for sim)
	ev trace.Event
}

// episode is one fault episode's chain, rebuilt from trace.Log events:
// injected → first FailureDetected → first RestartRequested → last
// ComponentReady → recovered. All durations are in the units of the
// stamps handed in.
type episode struct {
	detect   int64 // injected → FailureDetected
	decide   int64 // FailureDetected → RestartRequested
	restart  int64 // first ComponentKilled → last ComponentReady
	settle   int64 // last ComponentReady → end
	requests int   // RestartRequested events
	giveups  int
	events   int
}

// rebuildEpisode folds the events observed between a fault's injection
// (startNs) and its recovery (endNs) into the episode chain.
func rebuildEpisode(evs []stamped, startNs, endNs int64) episode {
	var ep episode
	var detectAt, decideAt, killAt, readyAt int64
	for _, s := range evs {
		if s.at < startNs || s.at > endNs {
			continue
		}
		ep.events++
		switch s.ev.Kind {
		case trace.FailureDetected:
			if detectAt == 0 {
				detectAt = s.at
			}
		case trace.RestartRequested:
			ep.requests++
			if decideAt == 0 {
				decideAt = s.at
			}
		case trace.ComponentKilled:
			if killAt == 0 {
				killAt = s.at
			}
		case trace.ComponentReady:
			readyAt = s.at
		case trace.GiveUp:
			ep.giveups++
		}
	}
	if detectAt > 0 {
		ep.detect = detectAt - startNs
	}
	if decideAt > 0 && detectAt > 0 {
		ep.decide = decideAt - detectAt
	}
	from := killAt
	if from == 0 {
		from = decideAt
	}
	if readyAt > 0 && from > 0 && readyAt >= from {
		ep.restart = readyAt - from
	}
	if readyAt > 0 && endNs >= readyAt {
		ep.settle = endNs - readyAt
	}
	return ep
}

// spans writes the episode chain episode ⊃ detect → decide → restart →
// settle into the recorder.
func (ep episode) spans(r *spanRec, name string, startNs, endNs int64, op uint64) {
	if r == nil {
		return
	}
	id := r.add("episode", name, startNs, endNs, op)
	t := startNs
	for _, part := range []struct {
		layer, name string
		d           int64
	}{
		{"core", "core.detect", ep.detect},
		{"core", "core.decide", ep.decide},
		{"proc", "proc.restart", ep.restart},
		{"episode", "settle", ep.settle},
	} {
		r.addChild(id, part.layer, part.name, t, t+part.d, op)
		t += part.d
	}
}
