package slo

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bluefi/internal/obs"
)

// fakeSLI is a scripted indicator: each tick consumes the next
// (goodDelta, totalDelta) pair, accumulating cumulatively like a real
// counter pair.
type fakeSLI struct {
	mu          sync.Mutex
	good, total float64
}

func (f *fakeSLI) add(good, total float64) {
	f.mu.Lock()
	f.good += good
	f.total += total
	f.mu.Unlock()
}

func (f *fakeSLI) indicator() Indicator {
	return func() (float64, float64) {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.good, f.total
	}
}

// tickN drives n ticks with synthetic deterministic times.
func tickN(e *Engine, base int, n int) {
	for i := 0; i < n; i++ {
		e.Tick(time.Unix(int64(base+i), 0).UTC())
	}
}

// TestBurnRateMath: table-driven window math over a scripted error
// pattern. Objective 0.99 → 1% budget; 100 ops/tick at e errors is an
// error rate of e/100 and burn e (fast window fully inside the run).
func TestBurnRateMath(t *testing.T) {
	cases := []struct {
		name     string
		errPerTk float64 // errors per 100-op tick, applied for `ticks`
		ticks    int
		wantFast float64
		wantSlow float64
	}{
		{"no_errors", 0, 10, 0, 0},
		{"sustainable", 1, 40, 1, 1}, // exactly at budget: burn 1
		{"storm", 10, 40, 10, 10},    // 10× budget
		{"half_budget", 0.5, 40, 0.5, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sli := &fakeSLI{}
			e := NewEngine(nil)
			e.Add(Spec{Name: "x", Objective: 0.99, Indicator: sli.indicator()})
			for i := 0; i < c.ticks; i++ {
				sli.add(100-c.errPerTk, 100)
				e.Tick(time.Unix(int64(i), 0).UTC())
			}
			snap := e.Snapshot()
			got := snap.SLOs[0]
			if diff := got.FastBurn - c.wantFast; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("fast burn = %g, want %g", got.FastBurn, c.wantFast)
			}
			if diff := got.SlowBurn - c.wantSlow; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("slow burn = %g, want %g", got.SlowBurn, c.wantSlow)
			}
		})
	}
}

// TestBurnNoTraffic: zero traffic in the window means burn 0, not NaN
// or a stale page.
func TestBurnNoTraffic(t *testing.T) {
	sli := &fakeSLI{}
	e := NewEngine(nil)
	e.Add(Spec{Name: "idle", Objective: 0.99, Indicator: sli.indicator()})
	tickN(e, 0, 40)
	snap := e.Snapshot()
	if snap.SLOs[0].FastBurn != 0 || snap.SLOs[0].State != "ok" {
		t.Fatalf("idle SLO = %+v, want burn 0 / ok", snap.SLOs[0])
	}
}

// TestStateLadder: escalation is immediate when both windows cross;
// de-escalation steps one level per holdTicks of calm; a short blip
// that only moves the fast window never alerts (the slow window
// suppresses it).
func TestStateLadder(t *testing.T) {
	sli := &fakeSLI{}
	e := NewEngine(nil)
	e.Add(Spec{Name: "ladder", Objective: 0.99, Indicator: sli.indicator()})
	step := func(errs float64) {
		sli.add(100-errs, 100)
		e.Tick(time.Unix(int64(e.Snapshot().Tick), 0).UTC())
	}

	// One bad tick: fast window moves, slow window (32 ticks of mostly
	// clean traffic) stays under warnBurn ⇒ still OK.
	for i := 0; i < slowWindowTicks; i++ {
		step(0)
	}
	step(8) // 8 errors: fast burn 8/800/0.01 = 1, slow burn 8/3200/0.01 = 0.25 < 1
	if got := e.State("ladder"); got != OK {
		t.Fatalf("after blip: state %v, want OK", got)
	}

	// Sustained storm: both windows cross pageBurn ⇒ Page.
	for i := 0; i < 10; i++ {
		step(10)
	}
	if got := e.State("ladder"); got != Page {
		t.Fatalf("during storm: state %v, want Page", got)
	}

	// Recovery: clean traffic. Calm accumulates once the fast window
	// drops below a level's threshold. Expect
	// Page → (holdTicks calm) → Warn → (holdTicks calm) → OK.
	sawWarn := false
	var toOK int
	for i := 0; i < 60; i++ {
		step(0)
		st := e.State("ladder")
		if st == Warn {
			sawWarn = true
		}
		if st == OK {
			toOK = i + 1
			break
		}
	}
	if !sawWarn {
		t.Error("recovery skipped Warn — de-escalation must be one level at a time")
	}
	if toOK == 0 {
		t.Fatal("never recovered to OK")
	}
	// Walking Page→Warn→OK takes 2 × holdTicks calm ticks. It must
	// not be instant.
	if toOK < 2*holdTicks {
		t.Errorf("recovered in %d ticks — faster than 2×holdTicks hysteresis allows", toOK)
	}

	// Exactly one page episode, closed.
	eps := e.Episodes()
	if len(eps) != 1 || eps[0].Open || eps[0].SLO != "ladder" {
		t.Fatalf("episodes = %+v, want one closed episode", eps)
	}
	if eps[0].PeakBurn < pageBurn {
		t.Errorf("peak burn %g, want ≥ pageBurn", eps[0].PeakBurn)
	}
}

// TestHysteresisNoFlap: a storm that flickers (alternating bad/good
// ticks above/below threshold) must hold a single Page episode, not
// open one per flicker.
func TestHysteresisNoFlap(t *testing.T) {
	sli := &fakeSLI{}
	e := NewEngine(nil)
	e.Add(Spec{Name: "flap", Objective: 0.99, Indicator: sli.indicator()})
	pages := 0
	e.OnPage(func(Episode) { pages++ })

	step := func(errs float64) {
		sli.add(100-errs, 100)
		e.Tick(time.Unix(int64(e.Snapshot().Tick), 0).UTC())
	}
	for i := 0; i < slowWindowTicks; i++ {
		step(0)
	}
	// 30 flickering ticks: avg error rate 5% = burn 5 over any 8-tick
	// window, with single-tick dips.
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			step(10)
		} else {
			step(0)
		}
	}
	if pages != 1 {
		t.Fatalf("OnPage fired %d times during flickering storm, want 1", pages)
	}
	for i := 0; i < 40; i++ {
		step(0)
	}
	if got := e.State("flap"); got != OK {
		t.Fatalf("after recovery: state %v, want OK", got)
	}
	if got := len(e.Episodes()); got != 1 {
		t.Fatalf("episodes = %d, want exactly 1", got)
	}
}

// TestMetricsExported: the engine exports bluefi_slo_* families.
func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	sli := &fakeSLI{}
	e := NewEngine(reg)
	e.Add(Spec{Name: "m", Objective: 0.9, Indicator: sli.indicator()})
	for i := 0; i < 10; i++ {
		sli.add(50, 100) // 50% errors, objective 0.9 → burn 5
		e.Tick(time.Unix(int64(i), 0).UTC())
	}
	snap := reg.Snapshot()
	want := map[string]bool{
		"bluefi_slo_state":             false,
		"bluefi_slo_burn_fast_milli":   false,
		"bluefi_slo_burn_slow_milli":   false,
		"bluefi_slo_pages_total":       false,
		"bluefi_slo_transitions_total": false,
		"bluefi_slo_ticks_total":       false,
	}
	for _, fam := range snap.Families {
		if _, ok := want[fam.Name]; ok {
			want[fam.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %s not exported", name)
		}
	}
	if e.State("m") != Page {
		t.Fatalf("state = %v, want Page", e.State("m"))
	}
}

// TestHandler: /debug/slo serves a parseable snapshot.
func TestHandler(t *testing.T) {
	sli := &fakeSLI{}
	e := NewEngine(nil)
	e.Add(Spec{Name: "h", Objective: 0.99, Indicator: sli.indicator()})
	tickN(e, 0, 3)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Tick != 3 || len(snap.SLOs) != 1 || snap.SLOs[0].Name != "h" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestStartStops: the ticker goroutine exits with its context.
func TestStartStops(t *testing.T) {
	e := NewEngine(nil)
	sli := &fakeSLI{}
	e.Add(Spec{Name: "s", Objective: 0.99, Indicator: sli.indicator()})
	ctx, cancel := context.WithCancel(context.Background())
	e.Start(ctx, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for e.Snapshot().Tick == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Snapshot().Tick == 0 {
		t.Fatal("Start never ticked")
	}
	cancel()
	// After cancel the tick count settles.
	time.Sleep(10 * time.Millisecond)
	a := e.Snapshot().Tick
	time.Sleep(20 * time.Millisecond)
	if b := e.Snapshot().Tick; b != a {
		t.Fatalf("ticks advanced after cancel: %d → %d", a, b)
	}
}

// TestSpecNormalization: bad specs are rejected or repaired.
func TestSpecNormalization(t *testing.T) {
	e := NewEngine(nil)
	if e.Add(Spec{Name: "", Indicator: func() (float64, float64) { return 0, 0 }}) {
		t.Error("empty name accepted")
	}
	if e.Add(Spec{Name: "x"}) {
		t.Error("nil indicator accepted")
	}
	if !e.Add(Spec{Name: "x", Indicator: func() (float64, float64) { return 0, 0 }}) {
		t.Error("valid spec rejected")
	}
	if e.Add(Spec{Name: "x", Indicator: func() (float64, float64) { return 0, 0 }}) {
		t.Error("duplicate name accepted")
	}
	snap := e.Snapshot()
	s := snap.SLOs[0]
	if s.Objective != 0.99 || s.FastWindow != 8 || s.SlowWindow != 32 || s.PageBurn != 2 || s.WarnBurn != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}
