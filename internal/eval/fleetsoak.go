package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bluefi"
	"bluefi/internal/beacon"
	"bluefi/internal/fleet"
)

// Fleet soak — the beacon-CDN capacity experiment. A city-scale BlueFi
// deployment serves M advertisers from N APs, but distinct advertisers
// overwhelmingly reuse a small set of advertisement payloads (the
// BlueFlood observation: one venue's beacons differ only in identity
// fields, many not at all). The soak registers Beacons beacons drawn
// from UniquePayloads distinct advertisements across APs shards, ramps
// the load in levels recording the p50/p99/max beacon-slot latency at
// each (the capacity curve), then runs a churn phase — expiries,
// re-registrations, payload updates — and measures the steady-state
// PSDU cache hit rate, which Check holds at ≥90%.

// FleetSoakConfig sizes the soak.
type FleetSoakConfig struct {
	APs            int
	Beacons        int
	UniquePayloads int
	// IntervalSlots is each beacon's advertising interval (10 s default:
	// asset-tag cadence, so 100k beacons fit the per-AP airtime caps).
	IntervalSlots uint64
	// ChurnOps sizes the steady-state phase: one op is an expiry plus
	// re-registration, or a payload update, on a random live beacon.
	ChurnOps int
	Seed     int64
	// RampFractions are the cumulative load levels at which a capacity
	// point is recorded (default 10%, 25%, 50%, 100%).
	RampFractions []float64
	// CacheEntries bounds the PSDU cache; 0 sizes it to hold the whole
	// unique-payload working set (the deterministic-residency regime).
	CacheEntries int
	Workers      int
	Mode         bluefi.Mode
}

// DefaultFleetSoak is the CI configuration: 100k beacons, 64 shards.
func DefaultFleetSoak() FleetSoakConfig {
	return FleetSoakConfig{
		APs:            64,
		Beacons:        100000,
		UniquePayloads: 64,
		IntervalSlots:  16000,
		ChurnOps:       2000,
		Seed:           8,
		Mode:           bluefi.RealTime,
	}
}

func (c FleetSoakConfig) withDefaults() FleetSoakConfig {
	if c.IntervalSlots == 0 {
		c.IntervalSlots = 16000
	}
	if len(c.RampFractions) == 0 {
		c.RampFractions = []float64{0.1, 0.25, 0.5, 1}
	}
	if c.CacheEntries == 0 {
		// Hold the full working set with room to spare: the cache splits
		// its bound over 16 lock ways, so 32× the unique-payload count
		// keeps every payload resident even if key hashing piled them all
		// into one way. No eviction ever fires, residency is
		// order-independent, and the cache digest is comparable across
		// parallelism settings.
		c.CacheEntries = 32 * c.UniquePayloads
		if c.CacheEntries < 512 {
			c.CacheEntries = 512
		}
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// FleetCapacityPoint is one level of the capacity curve.
type FleetCapacityPoint struct {
	Beacons           int     `json:"beacons"`
	P50LatencySeconds float64 `json:"p50LatencySeconds"`
	P99LatencySeconds float64 `json:"p99LatencySeconds"`
	MaxLatencySeconds float64 `json:"maxLatencySeconds"`
	CacheHitRate      float64 `json:"cacheHitRate"` // cumulative at this level
	Failures          int     `json:"failures"`
}

// FleetSoakResult is the full soak outcome.
type FleetSoakResult struct {
	APs            int                  `json:"aps"`
	Shards         int                  `json:"shards"`
	Beacons        int                  `json:"beacons"`
	UniquePayloads int                  `json:"uniquePayloads"`
	Seed           int64                `json:"seed"`
	Ramp           []FleetCapacityPoint `json:"ramp"`
	// SteadyStateHitRate is the cache hit rate over the churn phase only.
	SteadyStateHitRate float64 `json:"steadyStateHitRate"`
	ChurnOps           int     `json:"churnOps"`
	Syntheses          uint64  `json:"syntheses"` // total cache misses
	CacheEntries       int     `json:"cacheEntries"`
	CacheBytes         int64   `json:"cacheBytes"`
	CacheDigest        string  `json:"cacheDigest"`
	ScheduleDigest     string  `json:"scheduleDigest"`
	// Sketches is the O(k) cardinality-bounded view: hot content keys,
	// hot shards, and the sketched slot-latency quantiles (within 1%
	// relative error of the exact ramp percentiles above).
	Sketches fleet.SketchSnapshot `json:"sketches"`
}

// soakPayload materializes unique advertisement #idx: iBeacon AD
// structures plus the advertiser address both derived from the payload
// index and seed, shared by every beacon that draws this payload.
func soakPayload(rng *rand.Rand, idx int) ([]byte, fleet.BDAddr) {
	b := beacon.IBeacon{Major: uint16(idx >> 8), Minor: uint16(rng.Intn(1 << 16)), MeasuredPower: -59}
	for i := range b.UUID {
		b.UUID[i] = byte(rng.Intn(256))
	}
	addr := fleet.BDAddr{0xCD, 0xFE, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(idx >> 8), byte(idx)}
	return b.ADStructures(), addr
}

// FleetSoak runs the capacity experiment. For a fixed config the result
// digests are byte-identical regardless of GOMAXPROCS: the op sequence
// is generated up front from the seed, each AP's ops apply in order,
// and the cache holds the whole working set.
func FleetSoak(cfg FleetSoakConfig) (*FleetSoakResult, error) {
	cfg = cfg.withDefaults()
	if cfg.APs < 1 || cfg.Beacons < 1 || cfg.UniquePayloads < 1 {
		return nil, fmt.Errorf("fleetsoak: APs, Beacons and UniquePayloads must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ads := make([][]byte, cfg.UniquePayloads)
	addrs := make([]fleet.BDAddr, cfg.UniquePayloads)
	for i := range ads {
		ads[i], addrs[i] = soakPayload(rng, i)
	}

	f, err := fleet.New(fleet.Config{
		APs:          cfg.APs,
		ShardWorkers: cfg.Workers,
		CacheEntries: cfg.CacheEntries,
		// 25% beacon duty per AP: a simulation ceiling, far above the 2%
		// a production AP would grant, so capacity is cache/latency-bound
		// rather than clipped by admission in this experiment.
		APAirtimeCap: 0.25,
		Synth:        bluefi.Options{Mode: cfg.Mode},
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Shutdown(context.Background()) }()

	// The whole registration sequence is drawn up front so the workload
	// is a pure function of the seed.
	regs := make([]fleet.Registration, cfg.Beacons)
	payloadOf := make([]int, cfg.Beacons)
	for i := range regs {
		p := rng.Intn(cfg.UniquePayloads)
		payloadOf[i] = p
		regs[i] = fleet.Registration{
			ID:            fmt.Sprintf("b%07d", i),
			AP:            i % cfg.APs,
			AD:            ads[p],
			Addr:          addrs[p],
			IntervalSlots: cfg.IntervalSlots,
		}
	}

	res := &FleetSoakResult{
		APs:            cfg.APs,
		Shards:         len(f.Shards()),
		Beacons:        cfg.Beacons,
		UniquePayloads: cfg.UniquePayloads,
		Seed:           cfg.Seed,
	}

	// Ramp: admit cumulative fractions of the fleet, one capacity point
	// per level.
	prev := 0
	for _, frac := range cfg.RampFractions {
		next := int(frac * float64(cfg.Beacons))
		if next > cfg.Beacons {
			next = cfg.Beacons
		}
		if next <= prev {
			continue
		}
		results := f.Register(regs[prev:next])
		point := FleetCapacityPoint{Beacons: next}
		lat := make([]float64, 0, len(results))
		for _, r := range results {
			if !r.OK() {
				point.Failures++
				continue
			}
			lat = append(lat, r.LatencySeconds)
		}
		sort.Float64s(lat)
		point.P50LatencySeconds = percentile(lat, 0.50)
		point.P99LatencySeconds = percentile(lat, 0.99)
		if len(lat) > 0 {
			point.MaxLatencySeconds = lat[len(lat)-1]
		}
		point.CacheHitRate = f.CacheStats().HitRate()
		res.Ramp = append(res.Ramp, point)
		prev = next
	}

	// Churn: expire+re-register or update random live beacons, drawing
	// payloads from the same unique pool. The hit-rate delta over this
	// phase is the steady-state figure the CI gate checks.
	before := f.CacheStats()
	churned := 0
	for churned < cfg.ChurnOps {
		batch := cfg.ChurnOps - churned
		if batch > 256 {
			batch = 256
		}
		expires := make([]fleet.BeaconRef, 0, batch/2)
		updates := make([]fleet.Registration, 0, batch/2)
		reregs := make([]fleet.Registration, 0, batch/2)
		picked := make(map[int]bool, batch)
		for n := 0; n < batch; n++ {
			i := rng.Intn(cfg.Beacons)
			if picked[i] {
				continue
			}
			picked[i] = true
			p := rng.Intn(cfg.UniquePayloads)
			reg := regs[i]
			reg.AD, reg.Addr = ads[p], addrs[p]
			if rng.Intn(2) == 0 {
				expires = append(expires, fleet.BeaconRef{ID: reg.ID, AP: reg.AP})
				reregs = append(reregs, reg)
			} else {
				updates = append(updates, reg)
			}
		}
		for _, r := range f.Expire(expires) {
			if !r.OK() {
				return nil, fmt.Errorf("fleetsoak: churn expire %s: %s", r.ID, r.Error)
			}
		}
		for _, r := range f.Register(reregs) {
			if !r.OK() {
				return nil, fmt.Errorf("fleetsoak: churn re-register %s: %s", r.ID, r.Error)
			}
		}
		for _, r := range f.Update(updates) {
			if !r.OK() {
				return nil, fmt.Errorf("fleetsoak: churn update %s: %s", r.ID, r.Error)
			}
		}
		churned += len(expires) + len(updates)
	}
	after := f.CacheStats()
	served := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
	total := served + (after.Misses - before.Misses)
	if total > 0 {
		res.SteadyStateHitRate = float64(served) / float64(total)
	}
	res.ChurnOps = churned
	res.Syntheses = after.Misses
	res.CacheEntries = after.Entries
	res.CacheBytes = after.Bytes
	res.CacheDigest = f.CacheDigest()
	res.ScheduleDigest = f.ScheduleDigest()
	res.Sketches = f.Sketches()
	return res, nil
}

// fleetHitRateFloor is the steady-state PSDU cache hit rate the soak
// must hold.
const fleetHitRateFloor = 0.90

// Check applies the soak's pass/fail gates: the final ramp level
// sustains every one of cfg.Beacons registrations with no failures and
// a recorded p99, the steady-state cache hit rate holds the 0.90 floor,
// and the O(k) sketches agree with the exact ramp figures.
func (r *FleetSoakResult) Check(cfg FleetSoakConfig) error {
	if len(r.Ramp) == 0 {
		return errors.New("no capacity points recorded")
	}
	last := r.Ramp[len(r.Ramp)-1]
	if last.Failures > 0 {
		return fmt.Errorf("%d registrations failed at the final level", last.Failures)
	}
	if last.Beacons < cfg.Beacons {
		return fmt.Errorf("sustained %d beacons, want %d", last.Beacons, cfg.Beacons)
	}
	if last.P99LatencySeconds <= 0 {
		return errors.New("no p99 beacon-slot latency recorded")
	}
	if r.SteadyStateHitRate < fleetHitRateFloor {
		return fmt.Errorf("steady-state cache hit rate %.4f under the %.2f floor", r.SteadyStateHitRate, fleetHitRateFloor)
	}
	// The quantile sketch promises 1% relative error against any true
	// sample; churn-phase admissions shift the sketched p99 slightly off
	// the ramp percentile, so gate at a loose 25% — it catches a broken
	// sketch, not honest drift.
	sk := r.Sketches
	if sk.SlotLatency.N == 0 {
		return errors.New("slot-latency sketch recorded no samples")
	}
	if p99 := sk.SlotLatency.P99; p99 <= 0 ||
		p99 < last.P99LatencySeconds*0.75 || p99 > last.MaxLatencySeconds*1.25 {
		return fmt.Errorf("sketched p99 %.6fs implausible against exact p99 %.6fs / max %.6fs",
			p99, last.P99LatencySeconds, last.MaxLatencySeconds)
	}
	if len(sk.HotKeys) == 0 || len(sk.HotShards) == 0 {
		return errors.New("heavy-hitter sketches empty after the soak")
	}
	return nil
}

// percentile reads the p-quantile from an ascending-sorted slice
// (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// FormatFleetSoak renders the capacity curve and gate figures.
func FormatFleetSoak(r *FleetSoakResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet soak — %d beacons, %d unique payloads, %d APs (%d shards), seed %d\n",
		r.Beacons, r.UniquePayloads, r.APs, r.Shards, r.Seed)
	fmt.Fprintf(&sb, "%10s  %12s  %12s  %12s  %8s\n", "beacons", "p50 latency", "p99 latency", "max latency", "hit rate")
	for _, pt := range r.Ramp {
		fmt.Fprintf(&sb, "%10d  %11.3fms  %11.3fms  %11.3fms  %7.2f%%\n",
			pt.Beacons, pt.P50LatencySeconds*1e3, pt.P99LatencySeconds*1e3, pt.MaxLatencySeconds*1e3,
			pt.CacheHitRate*100)
	}
	fmt.Fprintf(&sb, "steady-state hit rate %.2f%% over %d churn ops; %d syntheses total; cache %d entries / %d bytes\n",
		r.SteadyStateHitRate*100, r.ChurnOps, r.Syntheses, r.CacheEntries, r.CacheBytes)
	fmt.Fprintf(&sb, "cache digest    %s\nschedule digest %s\n", r.CacheDigest, r.ScheduleDigest)
	if n := len(r.Sketches.HotShards); n > 0 {
		fmt.Fprintf(&sb, "sketched slot latency p50 %.3fms p99 %.3fms (n=%d, %d buckets)\n",
			r.Sketches.SlotLatency.P50*1e3, r.Sketches.SlotLatency.P99*1e3,
			r.Sketches.SlotLatency.N, r.Sketches.SlotLatency.Buckets)
		top := r.Sketches.HotShards
		if len(top) > 4 {
			top = top[:4]
		}
		fmt.Fprintf(&sb, "hot shards:")
		for _, e := range top {
			fmt.Fprintf(&sb, " %s×%d", e.Key, e.Count)
		}
		fmt.Fprintf(&sb, "; hot keys tracked: %d\n", len(r.Sketches.HotKeys))
	}
	return sb.String()
}
