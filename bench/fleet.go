package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bluefi"
	"bluefi/internal/fleet"
	"bluefi/internal/scan"
)

// The fleet workload: the beacon CDN's serving plane. Set-up synthesizes
// a warm set of payloads and registers thousands of beacons over them;
// then clients churn their own beacons with bulk register, update and
// expire calls, every one a cache hit. Key derivation, the cache, airtime
// budgets, slot assignment and the sketches do the work and no synthesis
// runs, so this is the workload a synthesis optimisation must not move.

const (
	fleetAPs     = 8
	fleetUnique  = 32   // warm-set payloads
	fleetBeacons = 4096 // registered at set-up
	fleetClients = 2
	fleetBulk    = 8 // operations per bulk call
	// fleetAirtimeCap is each AP's beacon duty-cycle budget: 5% of the
	// carrier holds ~512 beacons per AP at the 10 s interval, plus churn.
	fleetAirtimeCap = 0.05
	// fleetReservoir bounds the latency samples a client keeps per call
	// kind.
	fleetReservoir = 1 << 16
)

// fleetBeacon is one live registration a client owns.
type fleetBeacon struct {
	id      string
	ap      int
	payload int
}

// fleetClient is one closed loop over its own beacons.
type fleetClient struct {
	id   int
	rng  *rand.Rand
	live []fleetBeacon // oldest first
	next int

	lat       [3]*reservoir // ms per bulk call, by kind
	ops, good int
	failed    int
	problems  []error // the first few failures
}

func (c *fleetClient) fail(err error) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, err)
	}
}

var fleetKinds = [3]string{"Register", "Update", "Expire"}

func runFleet(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(derive(b.cfg.seed, streamFleet, 0)))
	warm := make([]bluefi.BeaconJob, fleetUnique)
	for i := range warm {
		warm[i] = randomBeacon(rng)
	}
	initial := make([]fleetBeacon, fleetBeacons)
	for i := range initial {
		p := i
		if i >= fleetUnique {
			p = rng.Intn(fleetUnique)
		}
		initial[i] = fleetBeacon{id: fmt.Sprintf("w%d", i), ap: rng.Intn(fleetAPs), payload: p}
	}
	registration := func(fb fleetBeacon) fleet.Registration {
		j := warm[fb.payload]
		return fleet.Registration{ID: fb.id, AP: fb.ap, BLEChannel: j.BLEChannel, AD: j.ADStructures, Addr: fleet.BDAddr(j.Addr)}
	}

	build := func() (*fleet.Fleet, error) {
		f, err := fleet.New(fleet.Config{
			APs:          fleetAPs,
			APAirtimeCap: fleetAirtimeCap,
			Synth:        bluefi.Options{Mode: bluefi.RealTime},
		})
		if err != nil {
			return nil, err
		}
		regs := make([]fleet.Registration, len(initial))
		for i, fb := range initial {
			regs[i] = registration(fb)
		}
		for _, r := range f.Register(regs) {
			if !r.OK() {
				_ = f.Shutdown(context.Background())
				return nil, fmt.Errorf("registering %s: %s", r.ID, r.Error)
			}
		}
		return f, nil
	}
	shutdown := func(f *fleet.Fleet) { _ = f.Shutdown(context.Background()) }
	f, setups, err := setUp(build, shutdown)
	if err != nil {
		return nil, err
	}
	defer shutdown(f)

	clients := make([]*fleetClient, fleetClients)
	for c := range clients {
		fc := &fleetClient{
			id:  c,
			rng: rand.New(rand.NewSource(derive(b.cfg.seed, streamFleet, uint64(c+1)))),
		}
		for k := range fc.lat {
			fc.lat[k] = newReservoir(fleetReservoir, derive(b.cfg.seed, streamReservoir, uint64(len(fc.lat)*c+k)))
		}
		for i, fb := range initial {
			if i%fleetClients == c {
				fc.live = append(fc.live, fb)
			}
		}
		clients[c] = fc
	}

	oc := &outcome{setups: setups, entry: []string{"fleet.Register", "fleet.Update", "fleet.Expire"}, air: &airStats{}}
	b.smp.measure(true)
	start := now()
	deadline := b.deadline(start)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *fleetClient) {
			defer wg.Done()
			c.loop(b, f, deadline, registration)
		}(c)
	}
	wg.Wait()
	oc.elapsed = now().Sub(start)
	b.smp.measure(false)

	// The three kinds alternate, so their samples together weigh every
	// call alike.
	var kinds [3][]float64
	for _, c := range clients {
		for k, r := range c.lat {
			kinds[k] = append(kinds[k], r.buf...)
			oc.latMs = append(oc.latMs, r.buf...)
			oc.latN += r.seen
		}
		oc.attempted += c.ops
		oc.served += c.ops
		oc.units += c.ops
		oc.good += c.good
		for _, p := range c.problems {
			oc.fail(p)
		}
		oc.failed += c.failed - len(c.problems)
	}
	for k, name := range fleetKinds {
		sorted := sortedCopy(kinds[k])
		oc.detail("fleet."+name+"_us_p50", 1e3*percentile(sorted, 50), "us", len(sorted), "one bulk call of 8")
	}

	// Every register and update hit the warm set, so the only misses are
	// the warm set's own syntheses, and the live count is unchanged.
	stats := f.CacheStats()
	if stats.Misses != fleetUnique {
		oc.fail(fmt.Errorf("cache misses %d, want the warm set's %d", stats.Misses, fleetUnique))
	}
	if live := f.Snapshot().Beacons; live != fleetBeacons {
		oc.fail(fmt.Errorf("%d live beacons, want %d", live, fleetBeacons))
	}
	oc.detail("fleet.cache_hit_ratio", stats.HitRate(), "ratio", int(stats.Hits+stats.Misses+stats.Coalesced), "set-up included")
	if err := b.auditFleet(oc, f, warm); err != nil {
		return nil, err
	}
	return oc, nil
}

// loop issues bulk calls in cycles until deadline: register fleetBulk new
// beacons, move fleetBulk live ones to another warm payload, expire the
// oldest fleetBulk. It stops only between cycles, so the live count ends
// where it started.
func (c *fleetClient) loop(b *bench, f *fleet.Fleet, deadline time.Time, registration func(fleetBeacon) fleet.Registration) {
	for n := 0; n%3 != 0 || now().Before(deadline); n++ {
		kind := n % 3
		var regs []fleet.Registration
		var refs []fleet.BeaconRef
		switch kind {
		case 0:
			for range fleetBulk {
				fb := fleetBeacon{id: fmt.Sprintf("c%d-%d", c.id, c.next), ap: c.rng.Intn(fleetAPs), payload: c.rng.Intn(fleetUnique)}
				c.next++
				c.live = append(c.live, fb)
				regs = append(regs, registration(fb))
			}
		case 1:
			for i := fleetBulk; i < 2*fleetBulk; i++ {
				fb := &c.live[i]
				fb.payload = (fb.payload + 1 + c.rng.Intn(fleetUnique-1)) % fleetUnique
				regs = append(regs, registration(*fb))
			}
		case 2:
			for _, fb := range c.live[:fleetBulk] {
				refs = append(refs, fleet.BeaconRef{ID: fb.id, AP: fb.ap})
			}
			c.live = c.live[fleetBulk:]
		}
		root := b.tr.begin(int64(n))
		t0 := now()
		var res []fleet.Result
		switch kind {
		case 0:
			res = f.Register(regs)
		case 1:
			res = f.Update(regs)
		case 2:
			res = f.Expire(refs)
		}
		t1 := now()
		b.tr.record("fleet."+fleetKinds[kind], root, root, t0, t1)
		c.lat[kind].add(ms(t1.Sub(t0)))
		for _, r := range res {
			c.ops++
			switch {
			case !r.OK():
				c.fail(fmt.Errorf("fleet.%s %s: %s", fleetKinds[kind], r.ID, r.Error))
			case kind < 2 && r.CacheOutcome != "hit":
				c.fail(fmt.Errorf("fleet.%s %s: cache %s after warm-up", fleetKinds[kind], r.ID, r.CacheOutcome))
			default:
				c.good++
			}
		}
		b.tr.record("bench.check", root, root, t1, now())
		b.tr.record("request", root, 0, t0, now())
	}
}

// auditFleet re-synthesizes the warm set on a pool of its own, decodes
// every PSDU through the chip, channel and scanner models, and checks that
// the fleet's cache holds exactly those bytes — so every PSDU the fleet
// served is one the scanner decoded (or reported as undecodable).
func (b *bench) auditFleet(oc *outcome, f *fleet.Fleet, warm []bluefi.BeaconJob) error {
	reg := b.telemetry()
	pool, err := bluefi.NewPool(bluefi.Options{Mode: bluefi.RealTime, Telemetry: reg}, b.workers())
	if err != nil {
		return err
	}
	defer pool.Close()
	b.smp.pool.Store(pool)
	defer b.smp.pool.Store(nil)

	root := b.tr.begin(0)
	start := now()
	res := pool.BeaconBatch(warm)
	called := now()
	b.tr.record("pool.BeaconBatch", root, root, start, called)
	type entry struct {
		key  fleet.Key
		psdu []byte
	}
	entries := make([]entry, 0, len(warm))
	decoded := 0
	for i, r := range res {
		if r.Err != nil {
			oc.fail(fmt.Errorf("audit Pool.BeaconBatch: %w", r.Err))
			continue
		}
		pkt := r.Packet
		out, err := receive(b.tr, root, root, oc.air, pkt.PSDU, pkt.MCS, pkt.RehearsalMismatches, capture{
			kind: scan.KindBLEAdv, channel: warm[i].BLEChannel, offsetHz: pkt.ChannelOffsetHz(),
		}, derive(b.cfg.seed, streamLink, uint64(i)))
		t := now()
		ok := false
		if err == nil {
			ok, err = checkAdv(out, warm[i])
		}
		if err != nil {
			oc.fail(fmt.Errorf("audit beacon %d: %w", i, err))
		}
		if ok {
			decoded++
		}
		entries = append(entries, entry{key: fleet.DeriveKey(fleet.Params{
			AD: warm[i].ADStructures, Addr: warm[i].Addr, Mode: int(bluefi.RealTime), WiFiChannel: 3, BLEChannel: warm[i].BLEChannel,
		}), psdu: pkt.PSDU})
		b.tr.record("bench.check", root, root, t, now())
	}
	b.tr.record("audit", root, 0, start, now())

	// The digest fleet.CacheDigest computes: keys in order, each followed
	// by its PSDU's length and bytes.
	sort.Slice(entries, func(i, j int) bool { return string(entries[i].key[:]) < string(entries[j].key[:]) })
	h := sha256.New()
	var n [4]byte
	for _, e := range entries {
		h.Write(e.key[:])
		binary.LittleEndian.PutUint32(n[:], uint32(len(e.psdu)))
		h.Write(n[:])
		h.Write(e.psdu)
	}
	if want, got := hex.EncodeToString(h.Sum(nil)), f.CacheDigest(); want != got {
		oc.fail(fmt.Errorf("fleet cache holds PSDUs other than the audited ones (digest %s, want %s)", got[:12], want[:12]))
	}
	oc.detail("fleet.served_decoded_ratio", ratio(float64(decoded), float64(len(warm))), "ratio", len(warm),
		"warm-set PSDUs the scanner decodes bit-identical")

	submits := make([]time.Time, len(warm))
	for i := range submits {
		submits[i] = start
	}
	b.ledger(oc, reg, counts{}, start, submits)
	return nil
}
