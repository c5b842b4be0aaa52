package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer
// around its public function. Spans of one request share Req (the root
// span's ID); Parent links a span to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's origin
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
type tracer struct {
	origin time.Time
	stride int64 // trace every stride-th request

	mu    sync.Mutex
	spans []span // guarded by mu
	next  int64  // guarded by mu
}

func newTracer(origin time.Time, stride int64) *tracer {
	return &tracer{origin: origin, stride: stride}
}

// begin allocates a root span ID for request number req, or 0 when the
// request is not traced. Children recorded under ID 0 are dropped.
func (t *tracer) begin(req int64) int64 {
	if t == nil || req%t.stride != 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under parent in request root (a root
// span passes its own ID as root and 0 as parent). It returns the span's
// ID so callers can hang children off it.
func (t *tracer) record(name string, root, parent int64, start, end time.Time) int64 {
	if t == nil || root == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := root
	if parent != 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: root, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs []span) int64 {
	type iv struct{ s, e int64 }
	var clipped []iv
	for _, c := range ivs {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e > s {
			clipped = append(clipped, iv{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].s < clipped[j].s })
	var total, curS, curE int64
	for i, c := range clipped {
		switch {
		case i == 0:
			curS, curE = c.s, c.e
		case c.s > curE:
			total += curE - curS
			curS, curE = c.s, c.e
		case c.e > curE:
			curE = c.e
		}
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its
// children cover. A2DP segment children overlap, so the union of their
// intervals counts, not the sum of their durations.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// layerStat summarises every span of one name.
type layerStat struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50Ms"`
	MeanMs  float64 `json:"meanMs"`
	SelfMs  float64 `json:"selfMeanMs"`
	ShareOf float64 `json:"shareOfRoot"` // summed self time ÷ summed root time
}

// traceSummary is the per-layer view of a trace.
type traceSummary struct {
	Layers []layerStat `json:"layers"`
	// Coverage is the share of root time that child spans cover; the rest
	// is unattributed time inside the benchmark's own request loop.
	Coverage float64 `json:"coverage"`
	// UnattributedMs is the mean uncovered root time per request.
	UnattributedMs float64 `json:"unattributedMeanMs"`
	Roots          int     `json:"roots"`
}

// summarize computes per-name durations and self times. Roots are spans
// without a parent.
func summarize(spans []span) traceSummary {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var rootTotal, rootCovered float64
	var roots int
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		self := selfTime(s, kids[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e6)
		if s.Parent == 0 {
			roots++
			rootTotal += float64(s.dur())
			rootCovered += float64(s.dur() - self)
		}
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := traceSummary{Roots: roots, Coverage: ratio(rootCovered, rootTotal)}
	if roots > 0 {
		sum.UnattributedMs = (rootTotal - rootCovered) / 1e6 / float64(roots)
	}
	for _, n := range names {
		st := layerStat{
			Name:   n,
			N:      len(durs[n]),
			P50Ms:  median(durs[n]),
			MeanMs: mean(durs[n]),
			SelfMs: mean(selfs[n]),
		}
		st.ShareOf = ratio(st.SelfMs*float64(st.N), rootTotal/1e6)
		sum.Layers = append(sum.Layers, st)
	}
	return sum
}

// layer returns the named layer's statistics (zero when absent).
func (t traceSummary) layer(name string) layerStat {
	for _, l := range t.Layers {
		if l.Name == name {
			return l
		}
	}
	return layerStat{Name: name}
}

// writeTrace stores the spans and their summary as JSON.
func writeTrace(path string, spans []span, sum traceSummary) error {
	data, err := json.Marshal(struct {
		Summary traceSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}{sum, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
