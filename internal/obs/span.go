package obs

import (
	"context"
	"runtime/pprof"
	"time"
)

// Span tracing: StartSpan times a pipeline stage, propagates the span
// through the context (for parent/child linkage, including across
// goroutines), tags the goroutine's pprof labels so CPU profiles
// attribute samples to pipeline stages, and on End appends a record to
// the registry's bounded ring of recent spans.
//
// StartSpan always reads the clock and End always returns the measured
// duration, registry or not — callers like core use the duration to fill
// Result.Timings, which must work with telemetry disabled. Everything
// else (context value, pprof labels, ring append) happens only when a
// registry rides the context, so the disabled cost is two clock reads.

// PprofLabelKey is the pprof label under which the active span's name is
// visible in CPU profiles (`go tool pprof -tagfocus bluefi_span=...`).
const PprofLabelKey = "bluefi_span"

type registryCtxKey struct{}

// WithRegistry returns a context carrying the registry; StartSpan on the
// result records into it.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryCtxKey{}, r)
}

// RegistryFrom extracts the registry from a context (nil when absent).
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryCtxKey{}).(*Registry)
	return r
}

type spanCtxKey struct{}

// spanIdentity is the context-propagated linkage of an open span.
type spanIdentity struct {
	traceID, spanID uint64
}

// Span is one open timing region. It is a value type so the disabled
// path allocates nothing; End may be called exactly once.
type Span struct {
	reg     *Registry
	name    string
	start   time.Time
	attrs   []Label
	id      spanIdentity
	parent  uint64
	prevCtx context.Context // restores the parent's pprof labels on End
}

// SpanRecord is one completed span in the trace ring.
type SpanRecord struct {
	TraceID  uint64    `json:"traceID"`
	SpanID   uint64    `json:"spanID"`
	ParentID uint64    `json:"parentID,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"durationNs"`
	Attrs    []Label   `json:"attrs,omitempty"`
}

// StartSpan opens a span named name. The returned context carries the
// span (children started from it link to it, even on other goroutines)
// and the goroutine's pprof labels are set to the span name until End.
// With no registry in ctx the context is returned unchanged and the span
// only times.
func StartSpan(ctx context.Context, name string, attrs ...Label) (context.Context, Span) {
	start := time.Now()
	reg := RegistryFrom(ctx)
	if reg == nil {
		return ctx, Span{start: start}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanIdentity)
	sp := Span{
		reg:     reg,
		name:    name,
		start:   start,
		attrs:   attrs,
		parent:  parent.spanID,
		prevCtx: ctx,
	}
	sp.id.spanID = reg.ids.Add(1)
	sp.id.traceID = parent.traceID
	if sp.id.traceID == 0 {
		sp.id.traceID = sp.id.spanID // root span: new trace
	}
	nctx := context.WithValue(ctx, spanCtxKey{}, sp.id)
	nctx = pprof.WithLabels(nctx, pprof.Labels(PprofLabelKey, name))
	pprof.SetGoroutineLabels(nctx)
	return nctx, sp
}

// End closes the span, restores the goroutine's pprof labels to the
// parent context's, appends the record to the trace ring, and returns
// the measured duration.
func (sp Span) End() time.Duration {
	d := time.Since(sp.start)
	if sp.reg == nil {
		return d
	}
	pprof.SetGoroutineLabels(sp.prevCtx)
	sp.reg.recordSpan(SpanRecord{
		TraceID:  sp.id.traceID,
		SpanID:   sp.id.spanID,
		ParentID: sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		Duration: int64(d),
		Attrs:    sp.attrs,
	})
	return d
}

// recordSpan appends to the bounded ring, overwriting the oldest record
// once full.
func (r *Registry) recordSpan(rec SpanRecord) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if len(r.spanRing) < r.spanCap {
		r.spanRing = append(r.spanRing, rec)
		r.spanNext = len(r.spanRing) % r.spanCap
		return
	}
	r.spanRing[r.spanNext] = rec
	r.spanNext = (r.spanNext + 1) % r.spanCap
}

// RecentSpans returns the buffered span records, oldest first. Nil
// registries return nil.
func (r *Registry) RecentSpans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, 0, len(r.spanRing))
	if len(r.spanRing) < r.spanCap {
		return append(out, r.spanRing...)
	}
	out = append(out, r.spanRing[r.spanNext:]...)
	return append(out, r.spanRing[:r.spanNext]...)
}
