// Package fleet is the beacon-CDN serving layer: one daemon managing N
// simulated APs × M registered beacons, sharded by (AP, WiFi channel).
// Each shard owns a bluefi.Pool-backed synthesis queue and draws on its
// AP's airtime budget; all shards share one content-addressed PSDU
// cache keyed by (payload, addr, chip, mode, channel pairing), so a
// fleet-wide deployment of one advertisement pays exactly one
// synthesis no matter how many APs serve it.
//
// Determinism contract (the package is in the strict tier): bulk
// operations apply one AP's entries sequentially in input order —
// parallelism is only across APs — so for a fixed operation sequence
// the slot schedule, the budget ledger, and (with a cache sized to the
// working set) the resident cache contents are byte-identical across
// GOMAXPROCS settings. CacheDigest and ScheduleDigest expose that
// contract as hashes.
//
//bluefi:strict
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"bluefi"
	"bluefi/internal/airtime"
	"bluefi/internal/obs"
)

// ErrFleetClosed is returned for every operation after Shutdown began.
var ErrFleetClosed = errors.New("fleet: fleet is shut down")

// BDAddr is a Bluetooth device address; JSON-codecs as "aa:bb:cc:dd:ee:ff".
type BDAddr [6]byte

// Registration is one beacon the fleet should serve.
type Registration struct {
	// ID names the beacon within its shard (unique per (AP, WiFiChannel)).
	ID string `json:"id"`
	// AP is the serving access point, 0 ≤ AP < Config.APs.
	AP int `json:"ap"`
	// WiFiChannel picks the AP's shard (default: first configured channel).
	WiFiChannel int `json:"wifiChannel,omitempty"`
	// BLEChannel is the advertising channel 37–39 (default 38, the
	// canonical pairing for WiFi channel 3).
	BLEChannel int `json:"bleChannel,omitempty"`
	// AD is the raw advertising-data structures, ≤31 bytes.
	AD []byte `json:"ad"`
	// Addr is the advertiser address carried in the PDU.
	Addr BDAddr `json:"addr"`
	// IntervalSlots is the advertising interval in 625 µs slots
	// (default 16000 slots = 10 s; at least 32 slots = 20 ms, the BLE
	// minimum).
	IntervalSlots uint64 `json:"intervalSlots,omitempty"`
}

// BeaconRef addresses one live registration for expiry.
type BeaconRef struct {
	ID          string `json:"id"`
	AP          int    `json:"ap"`
	WiFiChannel int    `json:"wifiChannel,omitempty"`
}

// Result reports one bulk-operation entry's outcome. Error is empty on
// success. CacheOutcome is "hit", "miss" or "coalesced" for register
// and update operations.
type Result struct {
	ID             string  `json:"id"`
	Error          string  `json:"error,omitempty"`
	CacheOutcome   string  `json:"cacheOutcome,omitempty"`
	Slot           uint64  `json:"slot"`
	LatencySeconds float64 `json:"latencySeconds"`
}

// OK reports whether the operation succeeded.
func (r Result) OK() bool { return r.Error == "" }

// Config sizes a Fleet.
type Config struct {
	// APs is the number of simulated access points (required, ≥1).
	APs int
	// ChannelsPerAP lists each AP's WiFi channels, one shard per
	// (AP, channel). Default: {3}, the paper's canonical carrier.
	ChannelsPerAP []int
	// ShardWorkers is each shard's synthesis pool size (default 1).
	ShardWorkers int
	// CacheEntries bounds the shared PSDU cache (default 4096).
	CacheEntries int
	// APAirtimeCap is each AP's beacon duty-cycle budget in airtime
	// seconds per second (default 0.02 — 2% of the carrier).
	APAirtimeCap float64
	// Synth configures every shard's synthesizers. WiFiChannel is
	// overridden per shard; Telemetry (if set) also receives the
	// bluefi_fleet_* rollups.
	Synth bluefi.Options
}

// Fixed serving parameters: the cache's lock-shard count, the
// advertising-interval floor (32 slots = 20 ms, the BLE minimum) and
// default (16000 slots = 10 s), the BLE channel a registration defaults
// to (38, the canonical pairing for WiFi channel 3), and the sketches'
// heavy-hitter size, quantile relative error and quantile bucket bound.
const (
	cacheWays            = 16
	minIntervalSlots     = 32
	defaultIntervalSlots = 16000
	defaultBLEChannel    = 38
	sketchTopK           = 32
	sketchAlpha          = 0.01
	sketchMaxBuckets     = 512
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if len(c.ChannelsPerAP) == 0 {
		c.ChannelsPerAP = []int{3}
	}
	if c.ShardWorkers == 0 {
		c.ShardWorkers = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.APAirtimeCap == 0 {
		c.APAirtimeCap = 0.02
	}
	return c
}

// Fleet is the serving daemon: APs×channels shards over one shared
// content-addressed PSDU cache, with per-AP airtime budgets.
type Fleet struct {
	cfg    Config
	shards []*Shard // index = ap*len(cfg.ChannelsPerAP) + channelIndex
	cache  *Cache
	met    *metrics
	sk     *sketches
	obsCtx context.Context
}

// New builds the fleet: one synthesis pool per shard, one airtime
// budget per AP, one shared cache.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.APs < 1 {
		return nil, fmt.Errorf("fleet: need at least one AP, got %d", cfg.APs)
	}
	for i, ch := range cfg.ChannelsPerAP {
		for j := 0; j < i; j++ {
			if cfg.ChannelsPerAP[j] == ch {
				return nil, fmt.Errorf("fleet: duplicate WiFi channel %d in ChannelsPerAP", ch)
			}
		}
	}
	met := newMetrics(cfg.Synth.Telemetry)
	obsCtx := context.Background()
	if cfg.Synth.Telemetry != nil {
		obsCtx = obs.WithRegistry(obsCtx, cfg.Synth.Telemetry)
	}
	f := &Fleet{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheEntries, cacheWays, met),
		met:    met,
		sk:     newSketches(),
		obsCtx: obsCtx,
	}
	for ap := 0; ap < cfg.APs; ap++ {
		budget := airtime.NewBudget(cfg.APAirtimeCap)
		for _, ch := range cfg.ChannelsPerAP {
			opts := cfg.Synth
			opts.WiFiChannel = ch
			pool, err := bluefi.NewPool(opts, cfg.ShardWorkers)
			if err != nil {
				// Unwind the pools already started so a config error does
				// not leak their workers.
				_ = f.Shutdown(context.Background())
				return nil, fmt.Errorf("fleet: AP %d channel %d pool: %w", ap, ch, err)
			}
			f.shards = append(f.shards, &Shard{
				ap:          ap,
				wifiChannel: ch,
				pool:        pool,
				budget:      budget,
				cache:       f.cache,
				met:         met,
				sk:          f.sk,
				obsCtx:      obsCtx,

				label: fmt.Sprintf("ap%d/ch%d", ap, ch),
				chip:  int(opts.Chip),
				mode:  int(opts.Mode),

				byID: make(map[string]int),
			})
		}
	}
	return f, nil
}

// shardFor routes (ap, wifiChannel) to its shard; wifiChannel 0 means
// the AP's first configured channel.
func (f *Fleet) shardFor(ap, wifiChannel int) (*Shard, error) {
	if ap < 0 || ap >= f.cfg.APs {
		return nil, fmt.Errorf("fleet: AP %d out of range 0–%d", ap, f.cfg.APs-1)
	}
	if wifiChannel == 0 {
		return f.shards[ap*len(f.cfg.ChannelsPerAP)], nil
	}
	for ci, ch := range f.cfg.ChannelsPerAP {
		if ch == wifiChannel {
			return f.shards[ap*len(f.cfg.ChannelsPerAP)+ci], nil
		}
	}
	return nil, fmt.Errorf("fleet: WiFi channel %d not served (configured: %v)", wifiChannel, f.cfg.ChannelsPerAP)
}

// Shards returns the shard list in index order (AP-major).
func (f *Fleet) Shards() []*Shard { return f.shards }

// eachByAP applies op to every input index that route sends to a
// served shard: each AP's indices in input order (determinism), distinct
// APs in parallel, the last on the caller's goroutine. Routing failures
// are written straight into out and skipped. A stable sort by AP groups
// the indices in place, so a call allocates per AP only its goroutine.
func (f *Fleet) eachByAP(n int, route func(i int) (string, int, int), out []Result, op func(i int, sh *Shard)) {
	shardOf := make([]*Shard, n)
	byAP := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, ap, ch := route(i)
		sh, err := f.shardFor(ap, ch)
		if err != nil {
			f.met.failed()
			out[i] = Result{ID: id, Error: err.Error()}
			continue
		}
		shardOf[i] = sh
		byAP = append(byAP, i)
	}
	slices.SortStableFunc(byAP, func(a, b int) int { return shardOf[a].ap - shardOf[b].ap })
	run := func(w []int) {
		for _, i := range w {
			op(i, shardOf[i])
		}
	}
	var wg sync.WaitGroup
	for len(byAP) > 0 {
		end := 1
		for end < len(byAP) && shardOf[byAP[end]].ap == shardOf[byAP[0]].ap {
			end++
		}
		w := byAP[:end]
		if byAP = byAP[end:]; len(byAP) == 0 {
			run(w)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	wg.Wait()
}

// Register admits beacons in bulk. Entries for one AP apply in input
// order; distinct APs proceed in parallel. The returned slice is
// parallel to regs.
func (f *Fleet) Register(regs []Registration) []Result {
	return f.apply(regs, false)
}

// Update replaces live beacons' payload or interval in bulk, keeping
// their emission slots. Budget deltas apply atomically per beacon.
func (f *Fleet) Update(regs []Registration) []Result {
	return f.apply(regs, true)
}

func (f *Fleet) apply(regs []Registration, update bool) []Result {
	out := make([]Result, len(regs))
	f.eachByAP(len(regs), func(i int) (string, int, int) {
		return regs[i].ID, regs[i].AP, regs[i].WiFiChannel
	}, out, func(i int, sh *Shard) {
		out[i] = sh.register(regs[i], update)
	})
	return out
}

// Expire removes beacons in bulk, returning their airtime to the AP
// budgets. The returned slice is parallel to refs.
func (f *Fleet) Expire(refs []BeaconRef) []Result {
	out := make([]Result, len(refs))
	f.eachByAP(len(refs), func(i int) (string, int, int) {
		return refs[i].ID, refs[i].AP, refs[i].WiFiChannel
	}, out, func(i int, sh *Shard) {
		out[i] = sh.expire(refs[i].ID)
	})
	return out
}

// Snapshot is the fleet-wide stats export.
type Snapshot struct {
	Beacons  int             `json:"beacons"`
	Shards   []ShardSnapshot `json:"shards"`
	Cache    CacheStats      `json:"cache"`
	Sketches SketchSnapshot  `json:"sketches"`
}

// Snapshot captures per-shard and cache state, shards in index order.
func (f *Fleet) Snapshot() Snapshot {
	var out Snapshot
	out.Shards = make([]ShardSnapshot, 0, len(f.shards))
	for _, sh := range f.shards {
		s := sh.snapshot()
		out.Beacons += s.Beacons
		out.Shards = append(out.Shards, s)
	}
	out.Cache = f.cache.Stats()
	out.Sketches = f.sk.snapshot()
	return out
}

// CacheStats returns the shared cache's aggregate counters.
func (f *Fleet) CacheStats() CacheStats { return f.cache.Stats() }

// CacheDigest hashes the resident cache contents — every entry's key
// and PSDU bytes in sorted-key order. Two runs admitting the same
// working set (unevicted) produce identical digests regardless of
// arrival interleaving.
func (f *Fleet) CacheDigest() string {
	h := sha256.New()
	var n [4]byte
	for _, e := range f.cache.resident() {
		h.Write(e.Key[:])
		binary.LittleEndian.PutUint32(n[:], uint32(len(e.PSDU)))
		h.Write(n[:])
		h.Write(e.PSDU)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScheduleDigest hashes the full emission schedule — shards in index
// order, beacons in admission order with their slots, intervals and
// content keys. Identical digests mean byte-identical air programs.
func (f *Fleet) ScheduleDigest() string {
	h := sha256.New()
	var b [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, sh := range f.shards {
		u32(uint32(sh.ap))
		u32(uint32(sh.wifiChannel))
		for _, em := range sh.Schedule() {
			u32(uint32(len(em.ID)))
			h.Write([]byte(em.ID))
			h.Write([]byte(em.Key))
			u32(uint32(em.BLEChannel))
			u64(em.BaseSlot)
			u64(em.IntervalSlots)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Shutdown drains every shard in parallel: new operations are refused
// immediately, queued and in-flight syntheses finish unless ctx
// expires. Idempotent; returns the first drain error.
func (f *Fleet) Shutdown(ctx context.Context) error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, sh := range f.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = sh.drain(ctx)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
