// Package faults is the deterministic fault injector behind the chaos
// tests, the `bluefi-eval -slo` storm replay and the soaks. Like
// internal/obs it is nil-disabled: a nil *Injector makes every hook a
// no-op at the cost of one branch per site, so production builds pay
// nothing.
//
// Unlike obs, faults sits on the synthesis side of the measurement
// boundary — whether a fault fires feeds back into what the pipeline
// does — so the package is held to the strict determinism tier: no
// math/rand, no wall clock, no map iteration. Every decision is a pure
// function of (Plan.Seed, hook site, per-site draw index) through a
// splitmix64-style counter hash. Replaying a scenario with the same
// seed and the same per-site call sequence reproduces the same faults
// bit-identically; when hooks race across goroutines, each site's
// decision sequence is still deterministic — only which goroutine
// observes the n-th decision varies.
//
//bluefi:strict
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bluefi/internal/channel"
	"bluefi/internal/obs"
)

// Plan declares which faults to inject and how often. Rates are
// per-hook-invocation probabilities in [0,1]; a zero Plan injects
// nothing.
type Plan struct {
	// Seed drives every injection decision; same seed, same faults.
	Seed int64

	// WorkerPanicRate is the probability that a PanicPoint call panics —
	// the pool's worker-crash hook.
	WorkerPanicRate float64

	// SynthErrorRate is the probability that SynthesisError returns a
	// non-nil injected error — consulted at core.Synthesize entry.
	SynthErrorRate float64

	// LatencyRate is the probability that LatencyPenalty charges a
	// penalty of LatencyFactor × the nominal duration (default factor 2:
	// the "2× job-latency inflation" scenario).
	LatencyRate   float64
	LatencyFactor float64
	// LatencyBase is the nominal duration used when a hook has no
	// natural nominal of its own (default 625 µs, one Bluetooth slot).
	LatencyBase time.Duration

	// InterferenceRate is the probability that Interference returns an
	// active burst generator for the current packet.
	InterferenceRate     float64
	InterferenceDuty     float64 // default 0.3
	InterferencePowerDBm float64 // default -40
	InterferenceBurst    int     // burst length in samples, default 4800

	// MaxInjections bounds the total faults fired across all hooks
	// (0 = unbounded). Recovery tests use it to make the fault storm
	// stop deterministically.
	MaxInjections int64
}

// Enabled reports whether the plan can fire at all.
func (p Plan) Enabled() bool {
	return p.WorkerPanicRate > 0 || p.SynthErrorRate > 0 || p.LatencyRate > 0 || p.InterferenceRate > 0
}

// withDefaults fills the zero-value knobs.
func (p Plan) withDefaults() Plan {
	if p.LatencyFactor <= 0 {
		p.LatencyFactor = 2
	}
	if p.LatencyBase <= 0 {
		p.LatencyBase = 625 * time.Microsecond
	}
	if p.InterferenceDuty <= 0 {
		p.InterferenceDuty = 0.3
	}
	if p.InterferencePowerDBm == 0 {
		p.InterferencePowerDBm = -40
	}
	if p.InterferenceBurst <= 0 {
		p.InterferenceBurst = 4800
	}
	return p
}

// Hook sites. Each gets an independent deterministic decision sequence.
const (
	sitePanic = iota
	siteSynth
	siteLatency
	siteInterference
	numSites
)

// siteName indexes hook sites to the metric label values.
var siteName = [numSites]string{"panic", "synth_error", "latency", "interference"}

// ErrInjected marks every error the injector fabricates; test code
// matches it with errors.Is (or IsInjected) to tell injected failures
// from real ones.
var ErrInjected = errors.New("faults: injected fault")

// IsInjected reports whether err originates from an Injector.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// InjectedPanic is the value an injected worker panic carries, so
// recovery layers can attribute the crash.
type InjectedPanic struct {
	// Seq is the per-site draw index that fired (1-based).
	Seq uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected worker panic #%d", p.Seq)
}

// Injector evaluates a Plan. All methods are safe for concurrent use
// and safe on a nil receiver (every hook no-ops).
type Injector struct {
	plan Plan

	draws    [numSites]atomic.Uint64 // per-site draw counters
	injected atomic.Int64            // total faults fired, vs MaxInjections

	met *faultMetrics
}

// faultMetrics holds the injector's telemetry handles; nil disables
// them at one branch per record.
type faultMetrics struct {
	reg   *obs.Registry // event sink for the flight recorder
	fired [numSites]*obs.Counter
}

func newFaultMetrics(r *obs.Registry) *faultMetrics {
	if r == nil {
		return nil
	}
	m := &faultMetrics{reg: r}
	for s := 0; s < numSites; s++ {
		m.fired[s] = r.Counter("bluefi_faults_injected_total",
			"faults fired by the deterministic injector", obs.L("kind", siteName[s]))
	}
	return m
}

func (m *faultMetrics) record(site int) {
	if m == nil {
		return
	}
	m.fired[site].Inc()
	m.reg.Event("faults.injected", obs.L("kind", siteName[site]))
}

// New builds an injector for the plan; reg may be nil. A plan that
// cannot fire yields a nil injector, keeping production paths on the
// nil fast path.
func New(plan Plan, reg *obs.Registry) *Injector {
	if !plan.Enabled() {
		return nil
	}
	return &Injector{plan: plan.withDefaults(), met: newFaultMetrics(reg)}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a bijective
// avalanche hash, the standard way to turn a counter into white noise
// without carrying generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1) with 53 uniform bits.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// draw advances the site's counter and decides whether this invocation
// fires, honoring the global MaxInjections budget. Returns the draw's
// 1-based sequence number.
func (i *Injector) draw(site int, rate float64) (uint64, bool) {
	n := i.draws[site].Add(1)
	if rate <= 0 {
		return n, false
	}
	h := splitmix64(splitmix64(uint64(i.plan.Seed)+uint64(site)*0xa0761d6478bd642f) + n)
	if unit(h) >= rate {
		return n, false
	}
	for {
		cur := i.injected.Load()
		if max := i.plan.MaxInjections; max > 0 && cur >= max {
			return n, false // budget spent: the storm is over
		}
		if i.injected.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	i.met.record(site)
	return n, true
}

// Injected returns the total faults fired so far.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.injected.Load()
}

// Exhausted reports whether the MaxInjections budget is spent — the
// "faults have stopped" condition recovery tests wait on.
func (i *Injector) Exhausted() bool {
	if i == nil {
		return true
	}
	max := i.plan.MaxInjections
	return max > 0 && i.injected.Load() >= max
}

// PanicPoint is the worker-crash hook: when the draw fires it panics
// with an InjectedPanic. Place it where a buggy job function would blow
// up — inside the pool worker, under its recovery layer.
func (i *Injector) PanicPoint() {
	if i == nil {
		return
	}
	if n, fire := i.draw(sitePanic, i.plan.WorkerPanicRate); fire {
		panic(InjectedPanic{Seq: n})
	}
}

// SynthesisError is the synthesis-failure hook: a non-nil return means
// the caller should fail the current synthesis with that error.
func (i *Injector) SynthesisError() error {
	if i == nil {
		return nil
	}
	if n, fire := i.draw(siteSynth, i.plan.SynthErrorRate); fire {
		return fmt.Errorf("injected synthesis failure #%d: %w", n, ErrInjected)
	}
	return nil
}

// LatencyPenalty is the deadline-pressure hook: it returns the extra
// latency to charge against the current job (0 = none). nominal ≤ 0
// falls back to Plan.LatencyBase. Callers either sleep the penalty
// (pool jobs) or add it to their measured elapsed time (the audio
// deadline accounting), keeping injected deadline misses independent of
// the host machine's speed.
func (i *Injector) LatencyPenalty(nominal time.Duration) time.Duration {
	if i == nil {
		return 0
	}
	if _, fire := i.draw(siteLatency, i.plan.LatencyRate); !fire {
		return 0
	}
	if nominal <= 0 {
		nominal = i.plan.LatencyBase
	}
	return time.Duration(i.plan.LatencyFactor * float64(nominal))
}

// Interference is the channel-degradation hook: when it fires, the
// returned Interferer superimposes a burst train (seeded by the draw
// index, so every burst pattern is reproducible) and the caller should
// treat the packet's channel as dirty for the duration.
func (i *Injector) Interference() (channel.Interferer, bool) {
	if i == nil {
		return channel.Interferer{}, false
	}
	n, fire := i.draw(siteInterference, i.plan.InterferenceRate)
	if !fire {
		return channel.Interferer{}, false
	}
	return channel.Interferer{
		PowerDBm:     i.plan.InterferencePowerDBm,
		DutyCycle:    i.plan.InterferenceDuty,
		BurstSamples: i.plan.InterferenceBurst,
		Seed:         i.plan.Seed ^ int64(n),
	}, true
}
