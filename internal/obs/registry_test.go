package obs

import (
	"io"
	"math"
	"sync"
	"testing"
)

// TestNilSafety: a nil registry hands out nil handles and every
// recording method on them is a no-op — the "telemetry disabled" path
// instrumentation sites rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("bluefi_test_total", "")
	g := r.Gauge("bluefi_test_depth", "")
	h := r.Histogram("bluefi_test_seconds", "", ExpBuckets(1e-6, 10, 4))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Dec()
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles recorded something")
	}
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(snap.Families))
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrationIdempotent: registering the same (name, labels) twice
// returns the same underlying series; different labels make distinct
// series in one family.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bluefi_test_total", "help", L("stage", "fec"))
	b := r.Counter("bluefi_test_total", "other help", L("stage", "fec"))
	c := r.Counter("bluefi_test_total", "", L("stage", "iqgen"))
	a.Add(2)
	b.Add(3)
	c.Add(7)
	if got := a.Value(); got != 5 {
		t.Fatalf("shared series counts %d, want 5", got)
	}
	snap := r.Snapshot()
	if len(snap.Families) != 1 || len(snap.Families[0].Metrics) != 2 {
		t.Fatalf("want 1 family with 2 series, got %+v", snap)
	}
	if snap.Families[0].Help != "help" {
		t.Fatalf("first registration's help should win, got %q", snap.Families[0].Help)
	}
}

// TestKindConflict: a name claimed as a counter cannot become a gauge
// family — the second registration records into a detached series and
// the exporters keep exactly one TYPE per name.
func TestKindConflict(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bluefi_test_value", "")
	g := r.Gauge("bluefi_test_value", "")
	c.Add(4)
	g.Set(99) // must not leak into the exported family
	snap := r.Snapshot()
	if len(snap.Families) != 1 {
		t.Fatalf("want 1 family, got %d", len(snap.Families))
	}
	fam := snap.Families[0]
	if fam.Kind != KindCounter || len(fam.Metrics) != 1 || fam.Metrics[0].Value != 4 {
		t.Fatalf("conflicting registration corrupted the family: %+v", fam)
	}
	if g.Value() != 99 {
		t.Fatal("detached gauge should still record")
	}
}

// TestHistogramBuckets: cumulative bucket counts, sum, count, and the
// normalization of messy bounds.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bluefi_test_seconds", "", []float64{0.1, 0.01, 0.1}) // unsorted + dup
	for _, v := range []float64{0.005, 0.05, 0.5, 0.05} {
		h.Observe(v)
	}
	h.Observe(1e308)       // finite, lands in +Inf bucket
	h.Observe(math.Inf(1)) // dropped
	h.Observe(math.NaN())  // dropped
	h.Observe(0)
	snap := r.Snapshot()
	m := snap.Families[0].Metrics[0]
	if len(m.Buckets) != 2 || m.Buckets[0].UpperBound != 0.01 || m.Buckets[1].UpperBound != 0.1 {
		t.Fatalf("bounds not normalized: %+v", m.Buckets)
	}
	// 0.005 and 0 <= 0.01; plus two 0.05 <= 0.1.
	if m.Buckets[0].Count != 2 || m.Buckets[1].Count != 4 {
		t.Fatalf("cumulative counts wrong: %+v", m.Buckets)
	}
	if m.Count != 6 {
		t.Fatalf("count %d, want 6 (non-finite dropped)", m.Count)
	}
}

// TestConcurrentRecording hammers one counter, one gauge and one
// histogram from parallel recorders while a reader snapshots and exports
// concurrently — the -race coverage for the lock-free hot path — then
// checks the final totals exactly.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bluefi_test_jobs_total", "jobs")
	g := r.Gauge("bluefi_test_inflight", "inflight")
	h := r.Histogram("bluefi_test_seconds", "latency", ExpBuckets(1e-6, 10, 6))

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // snapshot reader racing the recorders
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if err := WritePrometheus(io.Discard, snap); err != nil {
				t.Error(err)
				return
			}
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%7) * 1e-5)
				g.Dec()
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		// late registration racing the recorders must return the shared series
		if r.Counter("bluefi_test_jobs_total", "jobs") == nil {
			t.Fatal("re-registration returned nil")
		}
	}
	close(stop)
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", got, workers*perWorker)
	}
	var want float64
	for i := 0; i < perWorker; i++ {
		want += float64(i%7) * 1e-5
	}
	want *= workers
	if diff := h.Sum() - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("histogram sum %g, want %g", h.Sum(), want)
	}
}

// TestSanitization: hostile names and label keys come out in the
// Prometheus charset.
func TestSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter(`7bad name{"`, "", L(`bad key"`, `value with "quotes" and \`)).Inc()
	snap := r.Snapshot()
	if len(snap.Families) != 1 {
		t.Fatalf("want 1 family, got %d", len(snap.Families))
	}
	if got := snap.Families[0].Name; got != "_bad_name__" {
		t.Fatalf("name not sanitized: %q", got)
	}
	if got := snap.Families[0].Metrics[0].Labels[0].Key; got != "bad_key_" {
		t.Fatalf("label key not sanitized: %q", got)
	}
}

// TestConfigTraceCapacity: the ring holds exactly the configured trace
// capacity, the default until SetTraceCapacity changes it, and never
// fewer than one span.
func TestConfigTraceCapacity(t *testing.T) {
	r := NewRegistry()
	fill := func(n int) {
		for i := 0; i < n; i++ {
			r.recordSpan(SpanRecord{SpanID: uint64(i + 1), Name: "x"})
		}
	}
	fill(defaultTraceCapacity + 10)
	if n := len(r.RecentSpans()); n != defaultTraceCapacity {
		t.Fatalf("default RecentSpans len = %d, want %d", n, defaultTraceCapacity)
	}
	r.SetTraceCapacity(3)
	fill(10)
	if n := len(r.RecentSpans()); n != 3 {
		t.Fatalf("RecentSpans len = %d, want 3", n)
	}
	r.SetTraceCapacity(0)
	fill(10)
	if n := len(r.RecentSpans()); n != 1 {
		t.Fatalf("RecentSpans len after SetTraceCapacity(0) = %d, want 1", n)
	}
}

// TestCountAtMost: cumulative count at the largest bound ≤ v, never
// counting the +Inf bucket — a conservative lower bound.
func TestCountAtMost(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	cases := []struct {
		v    float64
		want int64
	}{
		{0.5, 0}, // below every bound
		{1, 1},   // ≤1 bucket only
		{2, 3},   // ≤1 and ≤2
		{4, 4},   // all finite buckets
		{1e9, 4}, // +Inf bucket excluded
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := h.CountAtMost(c.v); got != c.want {
			t.Errorf("CountAtMost(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	var nilH *Histogram
	if nilH.CountAtMost(1) != 0 || nilH.Bounds() != nil {
		t.Fatal("nil histogram introspection must be zero")
	}
}

// captureSink records events for tests.
type captureSink struct {
	mu     sync.Mutex
	events []string
}

func (s *captureSink) RecordEvent(kind string, attrs []Label) {
	s.mu.Lock()
	defer s.mu.Unlock()
	line := kind
	for _, a := range attrs {
		line += " " + a.Key + "=" + a.Value
	}
	s.events = append(s.events, line)
}

// TestEventSink: events flow to the installed sink; without one (or on
// a nil registry) Event is a no-op; removal stops delivery.
func TestEventSink(t *testing.T) {
	var nilReg *Registry
	nilReg.Event("x") // must not panic

	r := NewRegistry()
	r.Event("dropped") // no sink yet

	sink := &captureSink{}
	r.SetEventSink(sink)
	r.Event("pool.shed", L("policy", "reject"))
	r.SetEventSink(nil)
	r.Event("after.removal")

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 1 || sink.events[0] != "pool.shed policy=reject" {
		t.Fatalf("events = %q", sink.events)
	}
}
