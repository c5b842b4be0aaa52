package fleet

import (
	"context"
	"fmt"
	"sync"

	"bluefi"
	"bluefi/internal/airtime"
	"bluefi/internal/obs"
)

// SlotSeconds is one Bluetooth advertising slot (625 µs) — the unit of
// every interval and of the emission schedule.
const SlotSeconds = 625e-6

// beaconState is one live registration owned by a shard.
type beaconState struct {
	id            string
	key           Key
	entry         *Entry
	bleChannel    int
	intervalSlots uint64
	baseSlot      uint64
	duty          float64 // airtime seconds per second, held in the AP budget
}

// Shard owns every beacon of one (AP, WiFi channel) pairing: a
// bluefi.Pool-backed synthesis queue, the AP's airtime budget (shared
// with the AP's other shards), the slice of live registrations in
// admission order, and the slot cursor that places each admitted beacon
// on the emission timeline.
//
// All methods are safe for concurrent use; determinism of the slot
// schedule and the cache contents follows from the operation order per
// shard (the bulk APIs apply one AP's operations sequentially).
type Shard struct {
	ap          int
	wifiChannel int

	pool   *bluefi.Pool
	budget *airtime.Budget
	cache  *Cache
	met    *metrics
	sk     *sketches
	obsCtx context.Context

	// label names the shard in the hot-shards sketch: "ap<A>/ch<C>".
	label string
	chip  int
	mode  int

	mu         sync.Mutex
	closed     bool           // guarded by mu
	byID       map[string]int // guarded by mu — id → index into beacons
	beacons    []*beaconState // guarded by mu — admission order; nil = expired
	holes      int            // guarded by mu
	slotCursor uint64         // guarded by mu
	live       int            // guarded by mu
}

// AP returns the shard's access-point index.
func (sh *Shard) AP() int { return sh.ap }

// WiFiChannel returns the shard's WiFi carrier channel.
func (sh *Shard) WiFiChannel() int { return sh.wifiChannel }

// validate normalizes a registration in place and rejects malformed
// ones before any synthesis is attempted.
func (sh *Shard) validate(reg *Registration) error {
	if reg.ID == "" {
		return fmt.Errorf("fleet: empty beacon ID")
	}
	if len(reg.AD) > 31 {
		return fmt.Errorf("fleet: %d bytes of AD structures exceed 31", len(reg.AD))
	}
	if reg.BLEChannel == 0 {
		reg.BLEChannel = defaultBLEChannel
	}
	if reg.BLEChannel < 37 || reg.BLEChannel > 39 {
		return fmt.Errorf("fleet: BLE advertising channel %d out of range 37–39", reg.BLEChannel)
	}
	if reg.IntervalSlots == 0 {
		reg.IntervalSlots = defaultIntervalSlots
	}
	if reg.IntervalSlots < minIntervalSlots {
		return fmt.Errorf("fleet: interval of %d slots under the %d-slot floor", reg.IntervalSlots, minIntervalSlots)
	}
	return nil
}

// key derives the registration's content address under this shard's
// chip, mode and WiFi channel.
func (sh *Shard) key(reg *Registration) Key {
	return DeriveKey(Params{
		AD:          reg.AD,
		Addr:        [6]byte(reg.Addr),
		Chip:        sh.chip,
		Mode:        sh.mode,
		WiFiChannel: sh.wifiChannel,
		BLEChannel:  reg.BLEChannel,
	})
}

// synthesize runs the full BlueFi pipeline for one registration on the
// shard's pool and compacts the result into a cache entry.
func (sh *Shard) synthesize(reg *Registration) (*Entry, error) {
	_, sp := obs.StartSpan(sh.obsCtx, "fleet.synth")
	defer sp.End()
	res := sh.pool.BeaconBatch([]bluefi.BeaconJob{{
		ADStructures: reg.AD,
		Addr:         [6]byte(reg.Addr),
		BLEChannel:   reg.BLEChannel,
	}})
	r := res[0]
	if r.Err != nil {
		return nil, r.Err
	}
	pkt := r.Packet
	key := sh.key(reg)
	return &Entry{
		Key:                 key,
		hexKey:              key.String(),
		PSDU:                pkt.PSDU,
		MCS:                 pkt.MCS,
		WiFiChannel:         pkt.WiFiChannel,
		FrequencyMHz:        pkt.FrequencyMHz,
		AirtimeSeconds:      pkt.AirtimeSeconds,
		Fidelity:            pkt.Fidelity,
		RehearsalMismatches: pkt.RehearsalMismatches,
	}, nil
}

// register admits one beacon (update=false) or replaces one in place
// (update=true). Synthesis — or the cache lookup standing in for it —
// happens outside the shard lock; admission (budget, slot, registry) is
// a short critical section.
func (sh *Shard) register(reg Registration, update bool) Result {
	_, sp := obs.StartSpan(sh.obsCtx, "fleet.register")
	out := Result{ID: reg.ID}
	fail := func(err error) Result {
		sp.End()
		sh.met.failed()
		out.Error = err.Error()
		return out
	}
	if err := sh.validate(&reg); err != nil {
		return fail(err)
	}

	// Fast-fail pre-checks (rechecked under the lock at admission).
	sh.mu.Lock()
	_, exists := sh.byID[reg.ID]
	closed := sh.closed
	sh.mu.Unlock()
	if closed {
		return fail(ErrFleetClosed)
	}
	if !update && exists {
		return fail(fmt.Errorf("fleet: beacon %q already registered on AP %d channel %d", reg.ID, sh.ap, sh.wifiChannel))
	}
	if update && !exists {
		return fail(fmt.Errorf("fleet: beacon %q not registered on AP %d channel %d", reg.ID, sh.ap, sh.wifiChannel))
	}

	key := sh.key(&reg)
	entry, outcome, err := sh.cache.GetOrSynth(key, func() (*Entry, error) { return sh.synthesize(&reg) })
	if err != nil {
		return fail(fmt.Errorf("fleet: synthesis for beacon %q: %w", reg.ID, err))
	}
	duty := entry.AirtimeSeconds / (float64(reg.IntervalSlots) * SlotSeconds)

	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return fail(ErrFleetClosed)
	}
	idx, exists := sh.byID[reg.ID]
	switch {
	case update:
		if !exists {
			sh.mu.Unlock()
			return fail(fmt.Errorf("fleet: beacon %q expired during update", reg.ID))
		}
		old := sh.beacons[idx]
		if err := sh.budget.Swap(old.duty, duty); err != nil {
			sh.mu.Unlock()
			sp.End()
			sh.met.rejected()
			out.Error = fmt.Sprintf("fleet: AP %d airtime budget: %v", sh.ap, err)
			return out
		}
		sh.beacons[idx] = &beaconState{
			id: reg.ID, key: key, entry: entry,
			bleChannel:    reg.BLEChannel,
			intervalSlots: reg.IntervalSlots,
			baseSlot:      old.baseSlot, // updates keep their emission slot
			duty:          duty,
		}
		out.Slot = old.baseSlot
		sh.mu.Unlock()
		out.CacheOutcome = outcome.String()
		out.LatencySeconds = sp.End().Seconds()
		sh.met.updated(out.LatencySeconds)
		sh.sk.admitted(entry.hexKey, sh.label, out.LatencySeconds)
		return out
	case exists:
		sh.mu.Unlock()
		return fail(fmt.Errorf("fleet: beacon %q registered concurrently", reg.ID))
	default:
		if err := sh.budget.Reserve(duty); err != nil {
			sh.mu.Unlock()
			sp.End()
			sh.met.rejected()
			out.Error = fmt.Sprintf("fleet: AP %d airtime budget: %v", sh.ap, err)
			return out
		}
		slot := sh.slotCursor
		sh.slotCursor++
		sh.byID[reg.ID] = len(sh.beacons)
		sh.beacons = append(sh.beacons, &beaconState{
			id: reg.ID, key: key, entry: entry,
			bleChannel:    reg.BLEChannel,
			intervalSlots: reg.IntervalSlots,
			baseSlot:      slot,
			duty:          duty,
		})
		sh.live++
		out.Slot = slot
		sh.mu.Unlock()
		out.CacheOutcome = outcome.String()
		out.LatencySeconds = sp.End().Seconds()
		sh.met.registered(out.LatencySeconds)
		sh.sk.admitted(entry.hexKey, sh.label, out.LatencySeconds)
		return out
	}
}

// expire removes one beacon and returns its airtime to the AP budget.
func (sh *Shard) expire(id string) Result {
	out := Result{ID: id}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.met.failed()
		out.Error = ErrFleetClosed.Error()
		return out
	}
	idx, ok := sh.byID[id]
	if !ok {
		sh.mu.Unlock()
		sh.met.failed()
		out.Error = fmt.Sprintf("fleet: beacon %q not registered on AP %d channel %d", id, sh.ap, sh.wifiChannel)
		return out
	}
	b := sh.beacons[idx]
	sh.beacons[idx] = nil
	sh.holes++
	delete(sh.byID, id)
	sh.live--
	sh.budget.Release(b.duty)
	out.Slot = b.baseSlot
	sh.compactLocked()
	sh.mu.Unlock()
	sh.met.expired()
	return out
}

// compactLocked rebuilds the beacon slice once expired holes dominate,
// preserving admission order so the schedule digest is unaffected. The
// caller holds mu.
func (sh *Shard) compactLocked() {
	if len(sh.beacons) < 1024 || sh.holes*2 < len(sh.beacons) {
		return
	}
	dense := make([]*beaconState, 0, sh.live)
	for _, b := range sh.beacons {
		if b != nil {
			dense = append(dense, b)
		}
	}
	sh.beacons = dense
	sh.holes = 0
	for i, b := range sh.beacons {
		sh.byID[b.id] = i
	}
}

// drain refuses new operations and gracefully drains the shard's
// synthesis pool: queued and in-flight jobs finish unless ctx expires.
func (sh *Shard) drain(ctx context.Context) error {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
	return sh.pool.Shutdown(ctx)
}

// Emission is one scheduled advertisement: beacon id × content key ×
// its arithmetic slot sequence (baseSlot + k·intervalSlots).
type Emission struct {
	ID            string `json:"id"`
	Key           string `json:"key"`
	BLEChannel    int    `json:"bleChannel"`
	BaseSlot      uint64 `json:"baseSlot"`
	IntervalSlots uint64 `json:"intervalSlots"`
}

// Schedule lists the shard's emission schedule in admission order. The
// listing fully determines every future emission slot of every live
// beacon, so byte-identical schedules mean byte-identical air programs.
func (sh *Shard) Schedule() []Emission {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]Emission, 0, sh.live)
	for _, b := range sh.beacons {
		if b == nil {
			continue
		}
		out = append(out, Emission{
			ID:            b.id,
			Key:           b.key.String(),
			BLEChannel:    b.bleChannel,
			BaseSlot:      b.baseSlot,
			IntervalSlots: b.intervalSlots,
		})
	}
	return out
}

// ShardSnapshot is one shard's row in the fleet stats export.
type ShardSnapshot struct {
	AP          int     `json:"ap"`
	WiFiChannel int     `json:"wifiChannel"`
	Beacons     int     `json:"beacons"`
	SlotCursor  uint64  `json:"slotCursor"`
	AirtimeUsed float64 `json:"airtimeUsed"`
	AirtimeCap  float64 `json:"airtimeCap"`
	// BudgetHeadroom is the AP budget's remaining duty-cycle capacity
	// (shared across the AP's shards).
	BudgetHeadroom float64 `json:"budgetHeadroom"`
	PoolWorkers    int     `json:"poolWorkers"`
	// QueueDepth is the shard pool's backlog: jobs enqueued but not yet
	// picked up by a worker.
	QueueDepth int  `json:"queueDepth"`
	Closed     bool `json:"closed,omitempty"`
}

// snapshot captures the shard's current state.
func (sh *Shard) snapshot() ShardSnapshot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShardSnapshot{
		AP:             sh.ap,
		WiFiChannel:    sh.wifiChannel,
		Beacons:        sh.live,
		SlotCursor:     sh.slotCursor,
		AirtimeUsed:    sh.budget.Used(),
		AirtimeCap:     sh.budget.Cap(),
		BudgetHeadroom: sh.budget.Remaining(),
		PoolWorkers:    sh.pool.Workers(),
		QueueDepth:     sh.pool.QueueDepth(),
		Closed:         sh.closed,
	}
}
