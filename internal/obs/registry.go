package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// CounterVec is a family of counters keyed by one label value (e.g. the
// recoverer's restarts by tree node). Lookup of an existing label is
// lock-cheap (RLock + map read, no allocation); creating a new label is a
// cold path. Label cardinality is expected to be small and bounded — tree
// nodes, component names — so the map never needs eviction.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewCounterVec returns an empty vector.
func NewCounterVec() *CounterVec {
	return &CounterVec{m: make(map[string]*Counter)}
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(label string) *Counter {
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[label]; c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	return c
}

// Labels returns the label values present, sorted.
func (v *CounterVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for l := range v.m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// series is one exposed time series: a metric instance plus its rendered
// label pairs. Exactly one of the value fields is set.
type series struct {
	labels  string // pre-rendered `k="v",k2="v2"` (no braces), may be ""
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
	vec     *CounterVec
	vecKey  string // label key for vec series
}

// family groups the series sharing one metric name, so # HELP and # TYPE
// are emitted once per name as the exposition format requires.
type family struct {
	name   string
	help   string
	typ    string
	series []series
}

// Registry holds registered metrics and renders them as Prometheus text
// exposition (version 0.0.4). Registration is cold-path and may allocate;
// rendering walks plain slices and appends with strconv — no reflection,
// no fmt. The registry never copies metric values: it holds pointers and
// reads them atomically at render time.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	buf  []byte // render scratch, reused across scrapes
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// RegisterCounter exposes c under name. labels are optional key, value
// pairs baked into the series (static dimensions like dir="in").
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	r.register(name, help, "counter", series{labels: renderLabels(labels), counter: c})
}

// RegisterGauge exposes g under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...string) {
	r.register(name, help, "gauge", series{labels: renderLabels(labels), gauge: g})
}

// RegisterGaugeFunc exposes a computed gauge: fn is called at every
// render (uptime, derived ratios). fn must be safe for concurrent use.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, "gauge", series{labels: renderLabels(labels), gaugeFn: fn})
}

// RegisterHistogram exposes h under name in the standard cumulative
// _bucket/_sum/_count form.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.register(name, help, "histogram", series{labels: renderLabels(labels), hist: h})
}

// RegisterCounterVec exposes every label value of v under name, with the
// value keyed as labelKey. New label values appearing after registration
// are picked up automatically at the next render.
func (r *Registry) RegisterCounterVec(name, help, labelKey string, v *CounterVec) {
	r.register(name, help, "counter", series{vec: v, vecKey: labelKey})
}

// register files one series under its family, creating the family on
// first use. Conflicting re-registration of a name with a different type
// panics: metric wiring is startup code and a mismatch is a bug.
func (r *Registry) register(name, help, typ string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic("obs: metric " + name + " re-registered as " + typ + ", was " + f.typ)
	}
	f.series = append(f.series, s)
}

// WritePrometheus renders every registered metric to w in text exposition
// format, families sorted by name for a stable, diffable scrape.
func (r *Registry) WritePrometheus(w io.Writer) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)

	b := r.buf[:0]
	for _, n := range names {
		f := r.fams[n]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, s := range f.series {
			b = appendSeries(b, f.name, s)
		}
	}
	r.buf = b
	return w.Write(b)
}

// appendSeries renders one series' sample lines.
func appendSeries(b []byte, name string, s series) []byte {
	switch {
	case s.counter != nil:
		b = appendSample(b, name, s.labels, "")
		b = strconv.AppendUint(b, s.counter.Value(), 10)
		b = append(b, '\n')
	case s.gauge != nil:
		b = appendSample(b, name, s.labels, "")
		b = strconv.AppendInt(b, s.gauge.Value(), 10)
		b = append(b, '\n')
	case s.gaugeFn != nil:
		b = appendSample(b, name, s.labels, "")
		b = strconv.AppendFloat(b, s.gaugeFn(), 'g', -1, 64)
		b = append(b, '\n')
	case s.hist != nil:
		b = appendHistogram(b, name, s.labels, s.hist)
	case s.vec != nil:
		for _, label := range s.vec.Labels() {
			kv := s.vecKey + `="` + escapeLabel(label) + `"`
			b = appendSample(b, name, kv, "")
			b = strconv.AppendUint(b, s.vec.With(label).Value(), 10)
			b = append(b, '\n')
		}
	}
	return b
}

// appendHistogram renders the cumulative bucket ladder plus _sum/_count in
// the histogram's exposed unit. A sum of plain values stays an integer at
// any size; everything else is the shortest float.
func appendHistogram(b []byte, name, labels string, h *Histogram) []byte {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(h.exposed(bound), 'g', -1, 64)
		b = appendSample(b, name+"_bucket", labels, `le="`+le+`"`)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b = appendSample(b, name+"_bucket", labels, `le="+Inf"`)
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	b = appendSample(b, name+"_sum", labels, "")
	if h.unit == 1 {
		b = strconv.AppendUint(b, h.Sum(), 10)
	} else {
		b = strconv.AppendFloat(b, h.exposed(h.Sum()), 'g', -1, 64)
	}
	b = append(b, '\n')
	b = appendSample(b, name+"_count", labels, "")
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	return b
}

// appendSample writes `name{labels,extra} ` (braces omitted when both
// label strings are empty), leaving the value for the caller to append.
func appendSample(b []byte, name, labels, extra string) []byte {
	b = append(b, name...)
	if labels != "" || extra != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if labels != "" && extra != "" {
			b = append(b, ',')
		}
		b = append(b, extra...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	return b
}

// renderLabels turns key, value, key, value... pairs into the exposition
// label form `k="v",k2="v2"`. Panics on an odd pair count (startup-time
// programmer error).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	var sb strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}
