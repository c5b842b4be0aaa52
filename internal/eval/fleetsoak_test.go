package eval

import (
	"runtime"
	"testing"

	"bluefi"
)

// smallSoak is a CI-speed configuration: 4 unique payloads keep real
// synthesis under a second while still exercising ramp, churn, budget
// and digest paths.
func smallSoak(seed int64) FleetSoakConfig {
	return FleetSoakConfig{
		APs:            4,
		Beacons:        200,
		UniquePayloads: 4,
		ChurnOps:       60,
		Seed:           seed,
		Mode:           bluefi.RealTime,
	}
}

func TestFleetSoakSmoke(t *testing.T) {
	// 10k beacons keep the four cold syntheses and the scheduler's
	// stragglers well under 1% of the slot-latency samples, so the
	// sketched p99 is a cache hit like the final level's — the regime
	// Check's sketch gate is written for. 16 APs keep each AP's load
	// below the CI soak's.
	cfg := smallSoak(3)
	cfg.APs, cfg.Beacons = 16, 10000
	r, err := FleetSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFleetSoak(r))
	if err := r.Check(cfg); err != nil {
		t.Fatal(err)
	}
	if last := r.Ramp[len(r.Ramp)-1]; last.CacheHitRate < 0.9 {
		t.Fatalf("cumulative hit rate %.3f with %d beacons over %d payloads — caching broken",
			last.CacheHitRate, r.Beacons, r.UniquePayloads)
	}
	if r.Syntheses > uint64(r.UniquePayloads) {
		t.Fatalf("%d syntheses for %d unique payloads — singleflight or keying broken",
			r.Syntheses, r.UniquePayloads)
	}
	if r.CacheDigest == "" || r.ScheduleDigest == "" {
		t.Fatal("empty digests")
	}
}

// TestFleetSoakDeterministicAcrossParallelism is the SweepParallel-style
// gate: a fixed seed yields byte-identical cache contents and emission
// schedules at GOMAXPROCS 1, 4 and 8.
func TestFleetSoakDeterministicAcrossParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var cacheDigest, schedDigest string
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		r, err := FleetSoak(smallSoak(7))
		if err != nil {
			t.Fatal(err)
		}
		if cacheDigest == "" {
			cacheDigest, schedDigest = r.CacheDigest, r.ScheduleDigest
			continue
		}
		if r.CacheDigest != cacheDigest {
			t.Fatalf("GOMAXPROCS=%d cache digest %s, want %s", procs, r.CacheDigest, cacheDigest)
		}
		if r.ScheduleDigest != schedDigest {
			t.Fatalf("GOMAXPROCS=%d schedule digest %s, want %s", procs, r.ScheduleDigest, schedDigest)
		}
	}
}

func TestFleetSoakSeedSensitivity(t *testing.T) {
	a, err := FleetSoak(smallSoak(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetSoak(smallSoak(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleDigest == b.ScheduleDigest {
		t.Fatal("distinct seeds produced identical schedules — seed unused")
	}
}
