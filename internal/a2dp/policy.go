package a2dp

import (
	"encoding/json"
	"fmt"
	"sync"

	"bluefi/internal/obs"
)

// Graceful degradation (DESIGN.md §9): a live audio stream on a busy
// 2.4 GHz band sees deadline overruns, synthesis failures and
// interference bursts. Rather than stall or fail hard, the stream steps
// its quality down — smaller SBC bitpool, fewer (cleaner) AFH channels,
// and as a last resort dropped media packets above a shipped-fraction
// floor — and steps back up once the link stays clean. The Governor
// below is that policy engine: a three-state health machine with
// hysteresis in both directions so isolated hiccups don't oscillate the
// codec.

// Health is the stream's degradation state.
type Health int

const (
	// Healthy: full quality — baseline bitpool, full best-channel set.
	Healthy Health = iota
	// Degraded: bitpool stepped down once, hopping confined to the
	// cleanest channel subset.
	Degraded
	// Shedding: bitpool at two steps down and media packets are dropped
	// (never below the shipped-fraction floor) to relieve the link.
	Shedding
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Shedding:
		return "shedding"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// MarshalJSON renders the state by name, so degradation reports
// (BENCH_eval.json, the -serve /health endpoint) read without a decoder
// ring.
func (h Health) MarshalJSON() ([]byte, error) { return json.Marshal(h.String()) }

// PolicyConfig tunes the degradation policy. The zero value is usable;
// every knob has a documented default.
type PolicyConfig struct {
	// MissesToDegrade is the consecutive bad observations that move
	// Healthy → Degraded (default 2).
	MissesToDegrade int
	// MissesToShed is the consecutive bad observations that move
	// Degraded → Shedding (default 4).
	MissesToShed int
	// RecoverObservations is the consecutive clean observations that
	// step the state one level back up (default 8) — the hysteresis
	// keeping a flapping link from oscillating the codec.
	RecoverObservations int
	// InterferenceDutyThreshold is the injected/measured interference
	// duty cycle above which an observation counts as bad (default 0.2).
	InterferenceDutyThreshold float64
	// BitpoolStep is the bitpool reduction per degradation level
	// (default 8); BitpoolFloor bounds it from below (default 16).
	BitpoolStep  int
	BitpoolFloor int
	// DegradedBestChannels is how many of the ranked best channels the
	// stream keeps hopping over while not Healthy (default 1 — the
	// single cleanest channel).
	DegradedBestChannels int
	// ShipFloor is the minimum fraction of media packets that must ship
	// even while Shedding (default 0.8, the chaos-suite bound). It builds
	// the lone stream's private ledger; ignored while Coordinator is set.
	ShipFloor float64
	// Coordinator, when non-nil, is a ship-floor ledger shared with other
	// streams (see ShedBudget and DESIGN.md §14.2) that replaces the
	// private one: drops are granted against the fleet's totals rather
	// than this stream's. SessionID names this stream in the ledger and
	// must match its Register call.
	Coordinator *ShedBudget
	SessionID   string
	// Telemetry, when non-nil, receives the health gauge, transition
	// counters, shipped/dropped counters and time-in-state counters.
	Telemetry *obs.Registry
}

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.MissesToDegrade <= 0 {
		c.MissesToDegrade = 2
	}
	if c.MissesToShed <= 0 {
		c.MissesToShed = 4
	}
	if c.RecoverObservations <= 0 {
		c.RecoverObservations = 8
	}
	if c.InterferenceDutyThreshold <= 0 {
		c.InterferenceDutyThreshold = 0.2
	}
	if c.BitpoolStep <= 0 {
		c.BitpoolStep = 8
	}
	if c.BitpoolFloor <= 0 {
		c.BitpoolFloor = 16
	}
	if c.DegradedBestChannels <= 0 {
		c.DegradedBestChannels = 1
	}
	if c.ShipFloor <= 0 {
		c.ShipFloor = 0.8
	}
	return c
}

// Signal is one observation fed to the Governor — the stream reports
// one per media packet attempt.
type Signal struct {
	// DeadlineMiss: some segment's synthesis overran the slot budget.
	DeadlineMiss bool
	// SynthesisFailed: a segment failed to synthesize at all.
	SynthesisFailed bool
	// InterferenceDuty is the observed (or injected) interference duty
	// cycle on the packet's channel, 0 when clean.
	InterferenceDuty float64
	// Slots is how many 625 µs slots the observation spans (for
	// time-in-state accounting; 0 counts as 1).
	Slots int
}

// bad classifies the observation against the thresholds.
func (s Signal) bad(c PolicyConfig) bool {
	return s.DeadlineMiss || s.SynthesisFailed || s.InterferenceDuty >= c.InterferenceDutyThreshold
}

// Decision is the Governor's output for the next media packet: the
// health state and the knob settings the stream should apply. Bitpool
// and BestChannels are absolute targets, computed from the baselines
// given to NewGovernor.
type Decision struct {
	State Health
	// Drop: shed the next media packet (only ever true in Shedding, and
	// only while the shipped fraction stays above the floor).
	Drop bool
	// Bitpool is the SBC bitpool to encode with.
	Bitpool int
	// BestChannels is how many of the ranked best channels to hop over.
	BestChannels int
}

// govMetrics holds the Governor's telemetry handles; nil disables them
// at one branch per record.
type govMetrics struct {
	reg         *obs.Registry // event sink for the flight recorder
	state       *obs.Gauge
	shipped     *obs.Counter
	dropped     *obs.Counter
	timeIn      [3]*obs.Counter
	transitions map[[2]Health]*obs.Counter
}

func newGovMetrics(r *obs.Registry) *govMetrics {
	if r == nil {
		return nil
	}
	m := &govMetrics{
		reg: r,
		state: r.Gauge("bluefi_a2dp_health_state",
			"stream degradation state (0 healthy, 1 degraded, 2 shedding)"),
		shipped: r.Counter("bluefi_a2dp_frames_shipped_total",
			"media packets synthesized and handed to the caller"),
		dropped: r.Counter("bluefi_a2dp_frames_dropped_total",
			"media packets shed by the degradation policy or lost to faults"),
		transitions: map[[2]Health]*obs.Counter{},
	}
	for h := Healthy; h <= Shedding; h++ {
		m.timeIn[h] = r.Counter("bluefi_a2dp_time_in_state_slots_total",
			"625µs slots spent in each health state", obs.L("state", h.String()))
	}
	// Transitions are always one level at a time, both directions.
	for _, tr := range [][2]Health{{Healthy, Degraded}, {Degraded, Shedding}, {Shedding, Degraded}, {Degraded, Healthy}} {
		m.transitions[tr] = r.Counter("bluefi_a2dp_health_transitions_total",
			"health state transitions",
			obs.L("from", tr[0].String()), obs.L("to", tr[1].String()))
	}
	return m
}

func (m *govMetrics) setState(h Health) {
	if m == nil {
		return
	}
	m.state.Set(int64(h))
}

func (m *govMetrics) transition(from, to Health) {
	if m == nil {
		return
	}
	if c := m.transitions[[2]Health{from, to}]; c != nil {
		c.Inc()
	}
	m.state.Set(int64(to))
	m.reg.Event("governor.transition", obs.L("from", from.String()), obs.L("to", to.String()))
}

func (m *govMetrics) observe(h Health, slots int) {
	if m == nil {
		return
	}
	m.timeIn[h].Add(int64(slots))
}

func (m *govMetrics) ship(n int64) {
	if m == nil {
		return
	}
	m.shipped.Add(n)
}

func (m *govMetrics) drop(n int64) {
	if m == nil {
		return
	}
	m.dropped.Add(n)
}

// Governor is the degradation policy engine. It is safe for concurrent
// use, though a single stream normally feeds it sequentially.
type Governor struct {
	cfg          PolicyConfig // immutable after NewGovernor
	baseBitpool  int          // immutable after NewGovernor
	baseChannels int          // immutable after NewGovernor
	ledger       *ShedBudget  // immutable after NewGovernor; decides every drop
	met          *govMetrics

	mu      sync.Mutex
	state   Health    // guarded by mu
	bad     int       // guarded by mu; consecutive bad observations
	clean   int       // guarded by mu; consecutive clean observations
	timeIn  [3]uint64 // guarded by mu; slots spent per state
	trans   uint64    // guarded by mu; total transitions
	shipped uint64    // guarded by mu
	dropped uint64    // guarded by mu
}

// NewGovernor builds a policy engine around the stream's baseline
// quality: the configured SBC bitpool and best-channel count it returns
// to when Healthy. Without a Coordinator the governor asks a private
// ledger holding cfg.ShipFloor.
func NewGovernor(cfg PolicyConfig, baseBitpool, baseChannels int) *Governor {
	cfg = cfg.withDefaults()
	ledger := cfg.Coordinator
	if ledger == nil {
		ledger = NewShedBudget(ShedBudgetConfig{GlobalShipFloor: cfg.ShipFloor})
		_ = ledger.Register(cfg.SessionID) // a fresh ledger has no duplicates
	}
	g := &Governor{cfg: cfg, baseBitpool: baseBitpool, baseChannels: baseChannels,
		ledger: ledger, met: newGovMetrics(cfg.Telemetry)}
	g.met.setState(Healthy)
	return g
}

// Observe feeds one observation and returns the decision for the next
// media packet. In Shedding the decision asks the ledger for a drop, so
// a caller that acts on Drop must follow it with RecordDropped.
func (g *Governor) Observe(sig Signal) Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.observeLocked(sig)
	return g.decisionLocked(true)
}

// Shed records one media packet the stream shed on a granted Drop:
// the packet is charged to the ledger like RecordDropped, and its slots
// count as a clean observation. Unlike Observe it asks the ledger for
// nothing, so every ledger grant stays matched by exactly one shed.
func (g *Governor) Shed(slots int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropLocked(1)
	g.observeLocked(Signal{Slots: slots})
}

// observeLocked advances the time-in-state accounting and the
// hysteresis ladder by one observation.
func (g *Governor) observeLocked(sig Signal) {
	slots := sig.Slots
	if slots <= 0 {
		slots = 1
	}
	g.timeIn[g.state] += uint64(slots)
	g.met.observe(g.state, slots)
	if sig.bad(g.cfg) {
		g.bad++
		g.clean = 0
		switch {
		case g.state == Healthy && g.bad >= g.cfg.MissesToDegrade:
			g.transitionLocked(Degraded)
		case g.state == Degraded && g.bad >= g.cfg.MissesToShed:
			g.transitionLocked(Shedding)
		}
	} else {
		g.bad = 0
		g.clean++
		if g.state != Healthy && g.clean >= g.cfg.RecoverObservations {
			g.transitionLocked(g.state - 1)
		}
	}
}

// transitionLocked moves to a new state and resets the hysteresis
// counters.
func (g *Governor) transitionLocked(to Health) {
	g.met.transition(g.state, to)
	g.state = to
	g.trans++
	g.bad = 0
	g.clean = 0
}

// decisionLocked maps the current state to knob targets. requestDrop
// distinguishes a live Observe (which asks the ledger for a drop) from
// a read-only Report, which must never touch the ledger.
func (g *Governor) decisionLocked(requestDrop bool) Decision {
	d := Decision{State: g.state, Bitpool: g.baseBitpool, BestChannels: g.baseChannels}
	steps := 0
	switch g.state {
	case Degraded:
		steps = 1
	case Shedding:
		steps = 2
	}
	if steps > 0 {
		d.Bitpool = g.baseBitpool - steps*g.cfg.BitpoolStep
		if d.Bitpool < g.cfg.BitpoolFloor {
			d.Bitpool = g.cfg.BitpoolFloor
		}
		if d.Bitpool > g.baseBitpool {
			d.Bitpool = g.baseBitpool
		}
		if g.cfg.DegradedBestChannels < d.BestChannels {
			d.BestChannels = g.cfg.DegradedBestChannels
		}
	}
	if g.state == Shedding && requestDrop {
		d.Drop = g.ledger.Grant(g.cfg.SessionID)
	}
	return d
}

// RecordShipped counts media packets delivered to the caller and
// credits them to the ledger.
func (g *Governor) RecordShipped(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shipped += uint64(n)
	g.met.ship(int64(n))
	g.ledger.RecordShipped(g.cfg.SessionID, n)
}

// RecordDropped counts media packets shed or lost — both are charged
// to the ledger, so a fault loss eats into the floor exactly like a
// granted shed.
func (g *Governor) RecordDropped(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropLocked(n)
}

func (g *Governor) dropLocked(n int) {
	g.dropped += uint64(n)
	g.met.drop(int64(n))
	g.ledger.RecordDropped(g.cfg.SessionID, n)
}

// State returns the current health state.
func (g *Governor) State() Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Report is a point-in-time summary of the degradation history — what
// `bluefi-eval -slo` records for the chaos storm.
type Report struct {
	State   Health `json:"state"`
	Shipped uint64 `json:"shipped"`
	Dropped uint64 `json:"dropped"`
	// TimeInStateSlots is 625 µs slots spent Healthy/Degraded/Shedding.
	TimeInStateSlots [3]uint64 `json:"timeInStateSlots"`
	Transitions      uint64    `json:"transitions"`
	// Bitpool and BestChannels are the currently applied targets.
	Bitpool      int `json:"bitpool"`
	BestChannels int `json:"bestChannels"`
}

// Report returns the current summary.
func (g *Governor) Report() Report {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.decisionLocked(false)
	return Report{
		State:            g.state,
		Shipped:          g.shipped,
		Dropped:          g.dropped,
		TimeInStateSlots: g.timeIn,
		Transitions:      g.trans,
		Bitpool:          d.Bitpool,
		BestChannels:     d.BestChannels,
	}
}
