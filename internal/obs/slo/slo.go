// Package slo evaluates declarative service-level objectives with
// multi-window burn-rate alerting over the obs registry.
//
// An SLO is an objective ("99% of fleet registrations admit") over an
// indicator: a (good, total) cumulative counter pair sampled every
// tick. The engine keeps a ring of samples per SLO and computes the
// burn rate over two windows:
//
//	burn(W) = errorRate(W) / (1 − objective)
//
// burn 1.0 means the error budget drains exactly at the sustainable
// rate; burn 14 means a 30-day budget is gone in ~2 days. Following
// the multi-window multi-burn-rate recipe, an alert level activates
// only when BOTH the fast window (catches sudden storms quickly) and
// the slow window (suppresses blips) exceed its threshold. States
// escalate immediately (OK→Warn→Page the tick both windows cross) and
// de-escalate one level at a time only after holdTicks consecutive
// calm ticks — hysteresis, so a storm that flickers doesn't flap pages.
//
// Determinism: the engine never reads the clock. Tick(now) is driven
// externally — a wall-clock ticker in daemons (Start), a synthetic
// counter in tests — so chaos-storm replays produce identical state
// trajectories every run.
package slo

import (
	"context"
	"sort"
	"sync"
	"time"

	"bluefi/internal/obs"
)

// State is an SLO alert level.
type State int

const (
	OK State = iota
	Warn
	Page
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Page:
		return "page"
	default:
		return "unknown"
	}
}

// Indicator samples one SLI as cumulative (good, total) counts since
// process start. Implementations must be monotone and safe to call
// from the engine's tick goroutine.
type Indicator func() (good, total float64)

// Spec declares one SLO.
type Spec struct {
	// Name labels the SLO in metrics and snapshots (e.g.
	// "fleet_register_latency"). Must be unique within an engine.
	Name string
	// Description is operator-facing help text.
	Description string
	// Objective is the target good/total fraction in (0,1), e.g. 0.99.
	Objective float64
	// Indicator supplies the cumulative counts.
	Indicator Indicator
}

// Every SLO alerts on the same ladder: burn windows of fastWindowTicks
// and slowWindowTicks, a level activating when both windows are ≥ its
// burn threshold (pageBurn, warnBurn), and holdTicks consecutive ticks
// below every threshold before the state steps down one level.
const (
	fastWindowTicks = 8
	slowWindowTicks = 32
	pageBurn        = 2.0
	warnBurn        = 1.0
	holdTicks       = 12
)

// normalized fills the default objective.
func (s Spec) normalized() Spec {
	if s.Objective <= 0 || s.Objective >= 1 {
		s.Objective = 0.99
	}
	return s
}

// sample is one tick's cumulative indicator reading.
type sample struct{ good, total float64 }

// Episode records one excursion to Page.
type Episode struct {
	SLO       string    `json:"slo"`
	StartTick int64     `json:"startTick"`
	EndTick   int64     `json:"endTick"` // -1 while open
	Start     time.Time `json:"start"`
	End       time.Time `json:"end,omitempty"`
	PeakBurn  float64   `json:"peakBurn"` // max fast-window burn while paged
	Open      bool      `json:"open"`
}

// tracked is the engine's per-SLO state.
type tracked struct {
	spec    Spec
	ring    []sample // under Engine.mu — last slowWindowTicks+1 samples
	filled  int      // under Engine.mu
	next    int      // under Engine.mu
	state   State    // under Engine.mu
	calm    int      // under Engine.mu — consecutive below-all-thresholds ticks
	fast    float64  // under Engine.mu — latest fast-window burn
	slow    float64  // under Engine.mu — latest slow-window burn
	episode *Episode // under Engine.mu — open Page episode, if any

	stateG *obs.Gauge
	fastG  *obs.Gauge
	slowG  *obs.Gauge
	pages  *obs.Counter
	toOK   *obs.Counter
	toWarn *obs.Counter
	toPage *obs.Counter
}

// Engine evaluates a set of SLOs on an externally driven tick.
type Engine struct {
	mu       sync.Mutex
	slos     []*tracked // guarded by mu — registration order
	byName   map[string]*tracked
	tick     int64     // guarded by mu
	lastTime time.Time // guarded by mu
	episodes []Episode // guarded by mu — closed episodes, bounded
	onPage   []func(Episode)

	reg   *obs.Registry
	ticks *obs.Counter
}

// maxClosedEpisodes bounds the retained episode history.
const maxClosedEpisodes = 64

// NewEngine returns an engine exporting bluefi_slo_* metrics to reg
// (nil reg disables metrics but not evaluation).
func NewEngine(reg *obs.Registry) *Engine {
	return &Engine{
		byName: make(map[string]*tracked),
		reg:    reg,
		ticks:  reg.Counter("bluefi_slo_ticks_total", "SLO engine evaluation ticks."),
	}
}

// Add registers one SLO. Specs with a duplicate or empty name, no
// indicator, or out-of-range objective are normalized or dropped
// (returning false).
func (e *Engine) Add(spec Spec) bool {
	if spec.Name == "" || spec.Indicator == nil {
		return false
	}
	spec = spec.normalized()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.byName[spec.Name]; dup {
		return false
	}
	tr := &tracked{
		spec:   spec,
		ring:   make([]sample, slowWindowTicks+1),
		stateG: e.reg.Gauge("bluefi_slo_state", "Current SLO state (0 ok, 1 warn, 2 page).", obs.L("slo", spec.Name)),
		fastG:  e.reg.Gauge("bluefi_slo_burn_fast_milli", "Fast-window burn rate ×1000.", obs.L("slo", spec.Name)),
		slowG:  e.reg.Gauge("bluefi_slo_burn_slow_milli", "Slow-window burn rate ×1000.", obs.L("slo", spec.Name)),
		pages:  e.reg.Counter("bluefi_slo_pages_total", "Page episodes opened.", obs.L("slo", spec.Name)),
		toOK:   e.reg.Counter("bluefi_slo_transitions_total", "SLO state transitions.", obs.L("slo", spec.Name), obs.L("to", "ok")),
		toWarn: e.reg.Counter("bluefi_slo_transitions_total", "SLO state transitions.", obs.L("slo", spec.Name), obs.L("to", "warn")),
		toPage: e.reg.Counter("bluefi_slo_transitions_total", "SLO state transitions.", obs.L("slo", spec.Name), obs.L("to", "page")),
	}
	e.slos = append(e.slos, tr)
	e.byName[spec.Name] = tr
	return true
}

// OnPage registers fn to run (synchronously, outside the engine lock)
// whenever any SLO opens a Page episode. The flight recorder's dump
// hook goes here.
func (e *Engine) OnPage(fn func(Episode)) {
	if fn == nil {
		return
	}
	e.mu.Lock()
	e.onPage = append(e.onPage, fn)
	e.mu.Unlock()
}

// Tick samples every indicator and advances the state machines. now is
// attached to episodes; the engine itself never reads the clock.
func (e *Engine) Tick(now time.Time) {
	e.ticks.Inc()
	// Indicators run outside the lock: they may grab other locks
	// (cache stats, stream reports) and must not deadlock against
	// Snapshot callers.
	e.mu.Lock()
	slos := append([]*tracked(nil), e.slos...)
	e.mu.Unlock()
	reads := make([]sample, len(slos))
	for i, tr := range slos {
		good, total := tr.spec.Indicator()
		reads[i] = sample{good: good, total: total}
	}

	var paged []Episode
	e.mu.Lock()
	e.tick++
	e.lastTime = now
	tick := e.tick
	for i, tr := range slos {
		if ep := e.advanceLocked(tr, reads[i], tick, now); ep != nil {
			paged = append(paged, *ep)
		}
	}
	var hooks []func(Episode)
	hooks = append(hooks, e.onPage...)
	e.mu.Unlock()

	for _, ep := range paged {
		for _, fn := range hooks {
			fn(ep)
		}
	}
}

// advanceLocked pushes one sample and steps one SLO's state machine,
// returning a copy of a newly opened Page episode (nil otherwise).
func (e *Engine) advanceLocked(tr *tracked, s sample, tick int64, now time.Time) *Episode {
	tr.ring[tr.next] = s
	tr.next = (tr.next + 1) % len(tr.ring)
	if tr.filled < len(tr.ring) {
		tr.filled++
	}
	tr.fast = tr.burnLocked(fastWindowTicks, s)
	tr.slow = tr.burnLocked(slowWindowTicks, s)
	tr.fastG.Set(int64(tr.fast * 1000))
	tr.slowG.Set(int64(tr.slow * 1000))

	target := OK
	if tr.fast >= warnBurn && tr.slow >= warnBurn {
		target = Warn
	}
	if tr.fast >= pageBurn && tr.slow >= pageBurn {
		target = Page
	}

	var opened *Episode
	switch {
	case target > tr.state:
		// Escalate immediately, possibly skipping Warn.
		tr.state = target
		tr.calm = 0
		e.noteTransitionLocked(tr)
		if target == Page {
			tr.pages.Inc()
			tr.episode = &Episode{
				SLO:       tr.spec.Name,
				StartTick: tick,
				EndTick:   -1,
				Start:     now,
				PeakBurn:  tr.fast,
				Open:      true,
			}
			ep := *tr.episode
			opened = &ep
		}
	case target == tr.state:
		tr.calm = 0
	default:
		// Below the current level: de-escalate one step per holdTicks.
		tr.calm++
		if tr.calm >= holdTicks {
			tr.state--
			tr.calm = 0
			e.noteTransitionLocked(tr)
			if tr.state < Page && tr.episode != nil {
				tr.episode.EndTick = tick
				tr.episode.End = now
				tr.episode.Open = false
				e.episodes = append(e.episodes, *tr.episode)
				if len(e.episodes) > maxClosedEpisodes {
					e.episodes = e.episodes[len(e.episodes)-maxClosedEpisodes:]
				}
				tr.episode = nil
			}
		}
	}
	if tr.episode != nil && tr.fast > tr.episode.PeakBurn {
		tr.episode.PeakBurn = tr.fast
	}
	tr.stateG.Set(int64(tr.state))
	return opened
}

func (e *Engine) noteTransitionLocked(tr *tracked) {
	switch tr.state {
	case OK:
		tr.toOK.Inc()
	case Warn:
		tr.toWarn.Inc()
	case Page:
		tr.toPage.Inc()
	}
}

// burnLocked computes the burn rate over the last w ticks ending at the
// just-pushed sample cur. With fewer than w+1 samples buffered it uses
// what exists; with no traffic in the window the burn is 0.
func (tr *tracked) burnLocked(w int, cur sample) float64 {
	if tr.filled < 2 {
		return 0
	}
	span := w
	if span > tr.filled-1 {
		span = tr.filled - 1
	}
	// The ring's next points one past cur; the window base is span
	// ticks before cur.
	base := tr.ring[(tr.next-1-span+2*len(tr.ring))%len(tr.ring)]
	dTotal := cur.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dGood := cur.good - base.good
	if dGood < 0 {
		dGood = 0
	}
	if dGood > dTotal {
		dGood = dTotal
	}
	errRate := (dTotal - dGood) / dTotal
	return errRate / (1 - tr.spec.Objective)
}

// Start launches a wall-clock tick loop that stops with ctx. Daemons
// use this; tests drive Tick directly.
func (e *Engine) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				e.Tick(now)
			}
		}
	}()
}

// SLOStatus is one SLO's snapshot.
type SLOStatus struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Objective   float64  `json:"objective"`
	State       string   `json:"state"`
	FastBurn    float64  `json:"fastBurn"`
	SlowBurn    float64  `json:"slowBurn"`
	FastWindow  int      `json:"fastWindowTicks"`
	SlowWindow  int      `json:"slowWindowTicks"`
	PageBurn    float64  `json:"pageBurn"`
	WarnBurn    float64  `json:"warnBurn"`
	Episode     *Episode `json:"openEpisode,omitempty"`
}

// Snapshot is the engine's full state, JSON-stable for /debug/slo.
type Snapshot struct {
	Tick     int64       `json:"tick"`
	Time     time.Time   `json:"time"`
	SLOs     []SLOStatus `json:"slos"`
	Episodes []Episode   `json:"episodes"` // closed, oldest first
}

// Snapshot returns the current state (SLOs sorted by name).
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := Snapshot{
		Tick:     e.tick,
		Time:     e.lastTime,
		SLOs:     make([]SLOStatus, 0, len(e.slos)),
		Episodes: append([]Episode(nil), e.episodes...),
	}
	for _, tr := range e.slos {
		st := SLOStatus{
			Name:        tr.spec.Name,
			Description: tr.spec.Description,
			Objective:   tr.spec.Objective,
			State:       tr.state.String(),
			FastBurn:    tr.fast,
			SlowBurn:    tr.slow,
			FastWindow:  fastWindowTicks,
			SlowWindow:  slowWindowTicks,
			PageBurn:    pageBurn,
			WarnBurn:    warnBurn,
		}
		if tr.episode != nil {
			ep := *tr.episode
			st.Episode = &ep
		}
		snap.SLOs = append(snap.SLOs, st)
	}
	sort.Slice(snap.SLOs, func(i, j int) bool { return snap.SLOs[i].Name < snap.SLOs[j].Name })
	return snap
}

// State returns the named SLO's current state (OK when unknown).
func (e *Engine) State(name string) State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tr, ok := e.byName[name]; ok {
		return tr.state
	}
	return OK
}

// Episodes returns closed episodes plus any still-open ones, oldest
// first.
func (e *Engine) Episodes() []Episode {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := append([]Episode(nil), e.episodes...)
	for _, tr := range e.slos {
		if tr.episode != nil {
			out = append(out, *tr.episode)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartTick < out[j].StartTick })
	return out
}
