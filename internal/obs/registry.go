// Package obs is the repo's telemetry layer: a typed metrics registry
// (atomic counters, gauges, fixed-bucket histograms), lightweight span
// tracing with runtime/pprof label propagation, and exporters (Prometheus
// text format, JSON snapshot, trace dump) behind an http.Handler.
//
// Design constraints, in order:
//
//  1. Stdlib only.
//  2. Disabled must be free: every recording method is nil-safe, so a
//     synthesizer built without a registry pays one branch per record —
//     handles are simply nil. Instrumentation sites never check a flag.
//  3. The hot path must not allocate: counters and gauges are single
//     atomics, histograms find their bucket with a linear scan over a
//     fixed bound slice and update atomics only. Registration (which
//     locks and allocates) happens once at construction time; call sites
//     keep the returned handle.
//  4. Exporters must never panic or emit malformed output, whatever was
//     registered: metric and label names are sanitized to the Prometheus
//     charset at registration, non-finite observations are dropped, and
//     a name claimed by one metric kind cannot be re-claimed by another
//     (the conflicting registration gets a private, unexported metric).
//
// This package is the sanctioned sink for wall-clock reads: the
// determinism analyzer exempts internal/obs so the strict synthesis
// packages can time stages through StartSpan without per-line
// suppressions (they never touch package time themselves).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one key/value pair attached to a metric or span. Keys are
// sanitized to the Prometheus label charset at registration.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds, as exported in TYPE lines and snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Registry holds every registered metric plus the bounded ring of recent
// spans. The zero value is not usable; call NewRegistry. A nil *Registry
// is a valid "telemetry disabled" registry: every constructor returns a
// nil handle whose recording methods no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
	ids      atomic.Uint64      // span/trace ID source

	spanMu   sync.Mutex
	spanRing []SpanRecord // guarded by spanMu
	spanNext int          // guarded by spanMu
	spanCap  int          // guarded by spanMu

	// sink receives structured events (Registry.Event); nil means events
	// are dropped at one atomic load per record site.
	sink atomic.Pointer[eventSinkBox]
}

// EventSink consumes structured events recorded through
// Registry.Event. The flight recorder (internal/obs/flight) is the
// canonical implementation; the indirection keeps obs free of any
// dependency on it. Implementations must be safe for concurrent use and
// must not retain attrs past the call (record sites may reuse storage).
type EventSink interface {
	RecordEvent(kind string, attrs []Label)
}

// eventSinkBox wraps the interface so it fits an atomic.Pointer.
type eventSinkBox struct{ s EventSink }

// SetEventSink installs (or, with nil, removes) the registry's event
// sink. Safe to call while record sites are firing.
func (r *Registry) SetEventSink(s EventSink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&eventSinkBox{s: s})
}

// Event records one structured event — a pool retry, a fault
// injection, a governor transition — into the installed sink. Without a
// sink (or on a nil registry) it is a cheap no-op, so instrumentation
// sites never check a flag. Kinds follow the span taxonomy (dotted
// lowercase, e.g. "pool.retry").
func (r *Registry) Event(kind string, attrs ...Label) {
	if r == nil {
		return
	}
	b := r.sink.Load()
	if b == nil {
		return
	}
	b.s.RecordEvent(kind, attrs)
}

// family groups every metric sharing one name: Prometheus requires a
// single TYPE per family, so the first registration fixes the kind (and,
// for histograms, the bucket bounds).
type family struct {
	name   string
	help   string
	kind   string
	bounds []float64 // histogram families only
	// metrics maps label signature -> metric; the owning Registry's mu
	// guards every access.
	metrics map[string]*metric
}

// metric is the shared storage of one (name, labels) series. Which
// fields are live depends on the family kind.
type metric struct {
	labels []Label
	value  atomic.Int64   // counter, gauge
	counts []atomic.Int64 // histogram: one per finite bound, plus +Inf
	count  atomic.Int64   // histogram
	sum    atomicFloat    // histogram
}

// atomicFloat accumulates float64 additions with a CAS loop — the only
// stdlib-atomic way to sum floats without a lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// defaultTraceCapacity bounds the recent-span ring of a new registry.
const defaultTraceCapacity = 256

// NewRegistry returns an empty registry with the default trace capacity.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), spanCap: defaultTraceCapacity}
}

// SetTraceCapacity resizes the recent-span ring (minimum 1), dropping
// anything currently buffered.
func (r *Registry) SetTraceCapacity(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	r.spanCap = n
	r.spanRing = nil
	r.spanNext = 0
}

// register returns the metric for (name, labels), creating family and
// series as needed. A name already claimed by a different kind (or a
// histogram re-registered with different bounds for its first series)
// yields a detached metric: it records normally but is not exported, so
// the exporters can never emit two TYPE lines for one family.
func (r *Registry) register(name, help, kind string, labels []Label, bounds []float64) *metric {
	name = sanitizeName(name)
	labels = sanitizeLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, bounds: bounds, metrics: make(map[string]*metric)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		return newMetric(labels, bounds) // detached: kind conflict
	}
	sig := labelSignature(labels)
	if m, ok := fam.metrics[sig]; ok {
		return m
	}
	m := newMetric(labels, fam.bounds)
	fam.metrics[sig] = m
	return m
}

func newMetric(labels []Label, bounds []float64) *metric {
	m := &metric{labels: labels}
	if bounds != nil {
		m.counts = make([]atomic.Int64, len(bounds)+1)
	}
	return m
}

// labelSignature serializes a sorted label set into a map key.
func labelSignature(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// Counter is a monotonically increasing count. All methods are nil-safe.
type Counter struct{ m *metric }

// Counter registers (or finds) a counter. A nil registry returns nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{r.register(name, help, KindCounter, labels, nil)}
}

// Add increments the counter by n; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.m.value.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.m.value.Load()
}

// Gauge is an instantaneous integer level. All methods are nil-safe.
type Gauge struct{ m *metric }

// Gauge registers (or finds) a gauge. A nil registry returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{r.register(name, help, KindGauge, labels, nil)}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.m.value.Store(v)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.m.value.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.m.value.Load()
}

// Histogram is a fixed-bucket distribution (cumulative on export, like
// Prometheus). All methods are nil-safe.
type Histogram struct {
	m      *metric
	bounds []float64
}

// Histogram registers (or finds) a histogram with the given finite upper
// bounds (ascending; an implicit +Inf bucket is appended). A nil
// registry returns nil. Bounds are normalized: non-finite and duplicate
// values are dropped and the rest sorted, so any input yields a valid
// bucket layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	bounds = normalizeBounds(bounds)
	m := r.register(name, help, KindHistogram, labels, bounds)
	// The family's bounds win when the name was registered first with a
	// different layout — the metric's count slice is authoritative.
	r.mu.Lock()
	if fam, ok := r.families[sanitizeName(name)]; ok && fam.kind == KindHistogram {
		bounds = fam.bounds
	}
	r.mu.Unlock()
	if len(m.counts) != len(bounds)+1 {
		bounds = bounds[:len(m.counts)-1]
	}
	return &Histogram{m: m, bounds: bounds}
}

// normalizeBounds sorts, dedups and strips non-finite bounds. An empty
// result is replaced with a single catch-all bound so the layout stays
// valid.
func normalizeBounds(bounds []float64) []float64 {
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		dedup = append(dedup, 1)
	}
	return dedup
}

// Observe records one sample. Non-finite samples are dropped — a NaN or
// Inf must not poison the exported sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	idx := len(h.bounds) // +Inf bucket
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.m.counts[idx].Add(1)
	h.m.count.Add(1)
	h.m.sum.add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.m.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.m.sum.load()
}

// Bounds returns the histogram's finite bucket bounds (nil on nil).
// Callers must not mutate the returned slice.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// CountAtMost returns the number of observations known to be ≤ v: the
// cumulative count at the largest finite bound not exceeding v. With v
// below every bound it is 0; with v at or above the last bound it still
// excludes the +Inf bucket, so the result is conservative (a lower
// bound on the true count). This is the primitive behind
// histogram-threshold SLO indicators ("fraction of registrations under
// 10 ms") without retaining samples.
func (h *Histogram) CountAtMost(v float64) int64 {
	if h == nil || math.IsNaN(v) {
		return 0
	}
	var total int64
	for i, b := range h.bounds {
		if b > v {
			break
		}
		total += h.m.counts[i].Load()
	}
	return total
}

// ExpBuckets returns n ascending bounds start, start·factor, … — the
// usual latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+width, … — the
// layout for signed quantities like deadline slack.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// sanitizeName maps any string onto the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes become '_'.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			if b == nil {
				b = []byte(s)
			}
			b[i] = '_'
		}
	}
	if b != nil {
		return string(b)
	}
	return s
}

// sanitizeLabels sanitizes keys (label charset has no ':'), drops
// duplicates (first wins) and returns the set sorted by key.
func sanitizeLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, 0, len(labels))
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		k := strings.ReplaceAll(sanitizeName(l.Key), ":", "_")
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, Label{Key: k, Value: l.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
