// Package tracetest records a trace.Log's events for tests. The log itself
// keeps no history, so a test that reads past events attaches a Recorder
// before they happen: before Boot for boot events, before Inject for a
// fault's episode.
package tracetest

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"github.com/recursive-restart/mercury/internal/trace"
)

// Recorder keeps every event appended to one log after Record attached it.
// It is safe for concurrent use: the live runtimes append from their
// dispatcher goroutines while a test polls.
type Recorder struct {
	mu     sync.Mutex
	events []trace.Event
}

// Record subscribes a new Recorder to l.
func Record(l *trace.Log) *Recorder {
	r := &Recorder{}
	l.Subscribe(func(e trace.Event) {
		r.mu.Lock()
		r.events = append(r.events, e)
		r.mu.Unlock()
	})
	return r
}

// Events returns a copy of the recorded events, oldest first.
func (r *Recorder) Events() []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trace.Event(nil), r.events...)
}

// Filter returns the recorded events matching pred, oldest first.
func (r *Recorder) Filter(pred func(trace.Event) bool) []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []trace.Event
	for _, e := range r.events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Digest fingerprints the recorded events in order: FNV-1a over each
// event's At (Unix nanoseconds), Kind, Component, Node and rendered detail
// (trace.Event.AppendDetail), every string followed by a zero byte so
// adjacent fields cannot run together. A field reaches the digest through
// the text it renders, so two streams that read the same digest the same.
func (r *Recorder) Digest() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := fnv.New64a()
	var b [8]byte
	var buf []byte
	for _, e := range r.events {
		binary.LittleEndian.PutUint64(b[:], uint64(e.At.UnixNano()))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(e.Kind))
		h.Write(b[:])
		buf = append(append(buf[:0], e.Component...), 0)
		buf = append(append(buf, e.Node...), 0)
		h.Write(append(e.AppendDetail(buf), 0))
	}
	return h.Sum64()
}
