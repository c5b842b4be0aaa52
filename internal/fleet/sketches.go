package fleet

import (
	"bluefi/internal/obs/sketch"
	"bluefi/internal/obs/slo"
)

// sketches is the fleet's cardinality-bounded observability: at a
// million beacons a per-key label is a million series, so heavy-hitter
// and quantile sketches answer "which content keys are hot", "which
// shards are hot" and "what is the per-beacon slot latency tail" in
// O(k) memory. Always on — the record sites are off the synthesis hot
// path (they fire once per fleet admission, next to a SHA-256 and a
// cache lookup).
type sketches struct {
	hotKeys     *sketch.TopK     // content keys by admission count
	hotShards   *sketch.TopK     // "ap<A>/ch<C>" by admission count
	slotLatency *sketch.Quantile // register/update latency seconds
}

func newSketches() *sketches {
	return &sketches{
		hotKeys:     sketch.NewTopK(sketchTopK),
		hotShards:   sketch.NewTopK(sketchTopK),
		slotLatency: sketch.NewQuantile(sketchAlpha, sketchMaxBuckets),
	}
}

// admitted records one successful register/update of the content key
// hexKey (Key.String) on the shard labelled shard. Both strings are
// built once, with the cache entry and the shard, so a record allocates
// nothing.
func (s *sketches) admitted(hexKey, shard string, latencySeconds float64) {
	if s == nil {
		return
	}
	s.hotKeys.Offer(hexKey)
	s.hotShards.Offer(shard)
	s.slotLatency.Observe(latencySeconds)
}

// SketchSnapshot is the sketch section of the fleet stats export.
type SketchSnapshot struct {
	HotKeys     []sketch.TopKEntry     `json:"hotKeys"`
	HotShards   []sketch.TopKEntry     `json:"hotShards"`
	SlotLatency sketch.QuantileSummary `json:"slotLatency"`
}

// snapshot lists the top sketchTopK of each heavy-hitter sketch.
func (s *sketches) snapshot() SketchSnapshot {
	if s == nil {
		return SketchSnapshot{}
	}
	return SketchSnapshot{
		HotKeys:     s.hotKeys.Top(sketchTopK),
		HotShards:   s.hotShards.Top(sketchTopK),
		SlotLatency: s.slotLatency.Summary(),
	}
}

// SlotLatencyP99 exposes the latency sketch for capacity reports.
func (f *Fleet) SlotLatencyP99() float64 { return f.sk.slotLatency.Value(0.99) }

// Sketches returns the current sketch snapshot (the top 32 of each
// heavy-hitter list).
func (f *Fleet) Sketches() SketchSnapshot { return f.sk.snapshot() }

// SLOSpecs declares the fleet's canonical SLOs over its own metric
// handles, ready for slo.Engine.Add. Returns nil without telemetry
// (the indicators read the bluefi_fleet_* counters). Every SLO runs on
// the engine's fixed burn windows and thresholds.
func (f *Fleet) SLOSpecs() []slo.Spec {
	m := f.met
	if m == nil {
		return nil
	}
	latencyBound := 0.010 // seconds; ≈ the bucket at 10.24 ms in the default layout
	return []slo.Spec{
		{
			Name:        "fleet_register_latency",
			Description: "99% of beacon registrations reach PSDU-ready + slot-assigned within ~10 ms.",
			Objective:   0.99,
			Indicator: func() (float64, float64) {
				return float64(m.regLatency.CountAtMost(latencyBound)), float64(m.regLatency.Count())
			},
		},
		{
			Name:        "fleet_cache_hit_rate",
			Description: "90% of registrations avoid a fresh synthesis (hit or coalesced).",
			Objective:   0.90,
			Indicator: func() (float64, float64) {
				hits := float64(m.hits.Value() + m.coalesced.Value())
				return hits, hits + float64(m.misses.Value())
			},
		},
		{
			Name:        "fleet_admission_success",
			Description: "99% of fleet operations succeed (budget rejects and errors burn).",
			Objective:   0.99,
			Indicator: func() (float64, float64) {
				good := float64(m.registers.Value() + m.updates.Value() + m.expires.Value())
				return good, good + float64(m.rejects.Value()+m.errors.Value())
			},
		},
	}
}
