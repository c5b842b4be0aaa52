package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bluefi"
	"bluefi/internal/scan"
)

// The beacon workload: independent advertisers asking for one Quality
// beacon each, at a constant rate (an open loop), every payload unique.
// It exercises the library-default Quality path — phase search, rehearsal
// and the weighted Viterbi — plus pool queueing; A2DP never runs the
// Viterbi.

const (
	// beaconRate keeps the 2-worker Quality pool (≈5 beacons/s on the
	// reference box) about half busy, so queueing shows without dominating.
	beaconRate = 2.5 // requests per second
	// beaconInFlight bounds concurrent requests; past it the generator
	// stalls, which the generator-lag detail reports.
	beaconInFlight = 64
	// bleChannel is the advertising channel inside WiFi channel 3, the
	// paper's pairing.
	bleChannel = 38
)

// Stream tags for derive, one per kind of generated input.
const (
	streamPayload uint64 = iota + 1
	streamLink
	streamAudio
	streamFleet
	streamReservoir
)

// warmJobs is the fixed warm-up batch every set-up runs, so lazy
// initialisation inside the synthesizers is paid before timing starts and
// set-up time does not depend on the seed.
func warmJobs(n int) []bluefi.BeaconJob {
	jobs := make([]bluefi.BeaconJob, n)
	for i := range jobs {
		ib := bluefi.IBeacon{Major: 0xB1, Minor: uint16(i)}
		jobs[i] = bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: [6]byte{0xBF, 1, 2, 3, 4, byte(i)}, BLEChannel: bleChannel}
	}
	return jobs
}

// randomBeacon draws a unique iBeacon payload and static random address.
func randomBeacon(rng *rand.Rand) bluefi.BeaconJob {
	var ib bluefi.IBeacon
	rng.Read(ib.UUID[:])
	ib.Major = uint16(rng.Intn(1 << 16))
	ib.Minor = uint16(rng.Intn(1 << 16))
	ib.MeasuredPower = int8(-40 - rng.Intn(40))
	var addr [6]byte
	rng.Read(addr[:])
	addr[5] |= 0xC0 // static random address
	return bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: addr, BLEChannel: bleChannel}
}

// newPool builds a pool with its fixed warm-up done.
func newPool(opts bluefi.Options, workers int) (*bluefi.Pool, error) {
	pool, err := bluefi.NewPool(opts, workers)
	if err != nil {
		return nil, err
	}
	for _, r := range pool.BeaconBatch(warmJobs(workers)) {
		if r.Err != nil {
			pool.Close()
			return nil, fmt.Errorf("warm-up: %w", r.Err)
		}
	}
	return pool, nil
}

// checkAdv compares a decoded advertisement with the request; an error is
// a decode that is not bit-identical.
func checkAdv(out scan.Outcome, job bluefi.BeaconJob) (decoded bool, err error) {
	if !out.Decoded {
		return false, nil
	}
	if out.Adv == nil || out.Adv.AdvA != job.Addr || !bytes.Equal(out.Adv.Data, job.ADStructures) {
		return true, fmt.Errorf("decoded advertisement differs from the request: %+v", out.Adv)
	}
	return true, nil
}

func runBeacon(b *bench) (*outcome, error) {
	workers := b.workers()
	var reg *bluefi.Telemetry
	pool, setups, err := setUp(func() (*bluefi.Pool, error) {
		reg = b.telemetry()
		return newPool(bluefi.Options{Mode: bluefi.Quality, Telemetry: reg}, workers)
	}, (*bluefi.Pool).Close)
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	rng := rand.New(rand.NewSource(derive(b.cfg.seed, streamPayload, 0)))
	n := int(b.cfg.seconds * beaconRate)
	jobs := make([]bluefi.BeaconJob, n)
	for i := range jobs {
		jobs[i] = randomBeacon(rng)
	}

	oc := &outcome{setups: setups, entry: []string{"pool.BeaconBatch"}, air: &airStats{}}
	type reqResult struct {
		latency time.Duration
		submit  time.Time
		decoded bool
		err     error
	}
	results := make([]reqResult, n)
	serve := func(i int, due time.Time) reqResult {
		root := b.tr.begin(int64(i))
		started := now()
		b.tr.record("bench.dispatch", root, root, due, started)
		job := jobs[i]
		res := pool.BeaconBatch([]bluefi.BeaconJob{job})[0]
		called := now()
		b.tr.record("pool.BeaconBatch", root, root, started, called)
		r := reqResult{submit: started}
		if res.Err != nil {
			r.err = fmt.Errorf("request %d: Pool.BeaconBatch: %w", i, res.Err)
			return r
		}
		pkt := res.Packet
		out, err := receive(b.tr, root, root, oc.air, pkt.PSDU, pkt.MCS, pkt.RehearsalMismatches, capture{
			kind: scan.KindBLEAdv, channel: job.BLEChannel, offsetHz: pkt.ChannelOffsetHz(),
		}, derive(b.cfg.seed, streamLink, uint64(i)))
		checked := now()
		if err == nil {
			r.decoded, err = checkAdv(out, job)
		}
		if err != nil {
			r.err = fmt.Errorf("request %d: %w", i, err)
		}
		end := now()
		b.tr.record("bench.check", root, root, checked, end)
		b.tr.record("request", root, 0, due, end)
		r.latency = end.Sub(due)
		return r
	}

	before := readCounts(reg)
	b.smp.pool.Store(pool)
	b.smp.measure(true)
	start := now()
	sem := make(chan struct{}, beaconInFlight)
	var wg sync.WaitGroup
	var lagMax time.Duration
	interval := time.Duration(math.Round(float64(time.Second) / beaconRate))
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(now()); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		if lag := now().Sub(due); lag > lagMax {
			lagMax = lag
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			results[i] = serve(i, due)
			<-sem
		}(i, due)
	}
	wg.Wait()
	oc.elapsed = now().Sub(start)
	b.smp.measure(false)
	b.smp.pool.Store(nil)

	submits := make([]time.Time, 0, n)
	for _, r := range results {
		oc.attempted++
		oc.units++
		submits = append(submits, r.submit)
		if r.err != nil {
			oc.fail(r.err)
			continue
		}
		oc.addLatency(ms(r.latency))
		oc.served++
		if r.decoded {
			oc.good++
		}
	}
	oc.detail("bench.generator_lag_ms_max", ms(lagMax), "ms", n, "open loop: latest dispatch behind schedule")
	b.ledger(oc, reg, before, start, submits)
	return oc, nil
}
