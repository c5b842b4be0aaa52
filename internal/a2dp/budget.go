package a2dp

import (
	"fmt"
	"sync"

	"bluefi/internal/obs"
)

// Ship-floor ledger (DESIGN.md §14.2): every Governor asks a ledger
// before it sheds a media packet. A lone stream owns a private ledger; a
// SessionManager shares one ledger across its sessions, so the floor
// holds for the fleet instead of per stream. Every ledger holds
// ShipFloor, and one rule decides every drop, counting the packet about
// to be dropped:
//
//	dropped + 1 ≤ (1 − floor) × (shipped + dropped + 1)
//
// The totals are cumulative over each session while it is live: a
// session's packets count from Register until Unregister, and an
// eviction does not subtract the history it left behind. Grants for IDs
// outside the live set are denied, so an evicted stream never sheds
// again.
//
// Determinism contract: all state is counters mutated under one lock,
// so a replayed sequence of Grant/Record calls produces bit-identical
// decisions — no wall clock, no randomness, no map-order dependence.

// ShedBudgetConfig parameterizes a ledger.
type ShedBudgetConfig struct {
	// Telemetry, when non-nil, receives the grant/denial counters and
	// the session.budget_exhausted flight event.
	Telemetry *obs.Registry
}

// budgetMetrics holds the ledger's telemetry handles; nil disables them
// at one branch per record.
type budgetMetrics struct {
	reg    *obs.Registry
	grants *obs.Counter
	denied *obs.Counter
}

func newBudgetMetrics(r *obs.Registry) *budgetMetrics {
	if r == nil {
		return nil
	}
	return &budgetMetrics{
		reg: r,
		grants: r.Counter("bluefi_a2dp_session_shed_grants_total",
			"drop requests granted by the global shedding budget"),
		denied: r.Counter("bluefi_a2dp_session_shed_denials_total",
			"drop requests denied", obs.L("reason", "budget")),
	}
}

// ShedBudget is the ship-floor ledger. Safe for concurrent use.
type ShedBudget struct {
	met *budgetMetrics

	mu        sync.Mutex
	live      map[string]bool // guarded by mu
	shipped   uint64          // guarded by mu
	dropped   uint64          // guarded by mu; granted sheds plus fault losses
	grants    uint64          // guarded by mu
	denials   uint64          // guarded by mu
	exhausted bool            // guarded by mu; debounces the flight event
}

// NewShedBudget builds an empty ledger.
func NewShedBudget(cfg ShedBudgetConfig) *ShedBudget {
	return &ShedBudget{
		met:  newBudgetMetrics(cfg.Telemetry),
		live: make(map[string]bool),
	}
}

// Register adds a session to the live set. Duplicate IDs are an error:
// two streams must not share one identity in the ledger.
func (b *ShedBudget) Register(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.live[id] {
		return fmt.Errorf("a2dp: session %q already registered with the shed budget", id)
	}
	b.live[id] = true
	return nil
}

// Unregister removes a session from the live set; its recorded packets
// stay in the totals. Idempotent.
func (b *ShedBudget) Unregister(id string) {
	b.mu.Lock()
	delete(b.live, id)
	b.mu.Unlock()
}

// Grant asks permission to shed one media packet of the session. The
// caller must follow a granted request with RecordDropped (the stream's
// drop path does this via the governor). IDs outside the live set are
// denied without counting.
func (b *ShedBudget) Grant(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.live[id] {
		return false
	}
	// Capacity counts the packet about to be dropped.
	capacity := (1 - ShipFloor) * float64(b.shipped+b.dropped+1)
	if float64(b.dropped+1) > capacity {
		b.denials++
		if b.met != nil {
			b.met.denied.Inc()
			// Edge-triggered: one flight event per excursion into
			// exhaustion, not one per denied packet — a storm would
			// otherwise flood the recorder's ring.
			if !b.exhausted {
				b.met.reg.Event("session.budget_exhausted",
					obs.L("session", id), obs.L("reason", "budget"))
			}
		}
		b.exhausted = true
		return false
	}
	b.grants++
	b.exhausted = false
	if b.met != nil {
		b.met.grants.Inc()
	}
	return true
}

// RecordShipped credits n shipped packets (no-op for IDs outside the
// live set).
func (b *ShedBudget) RecordShipped(id string, n int) { b.record(id, n, false) }

// RecordDropped charges n dropped packets — granted sheds and fault
// losses alike (no-op for IDs outside the live set).
func (b *ShedBudget) RecordDropped(id string, n int) { b.record(id, n, true) }

func (b *ShedBudget) record(id string, n int, dropped bool) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.live[id] {
		return
	}
	if dropped {
		b.dropped += uint64(n)
	} else {
		b.shipped += uint64(n)
	}
}

// ShedBudgetReport is a point-in-time summary of the ledger.
type ShedBudgetReport struct {
	GlobalShipFloor float64 `json:"globalShipFloor"`
	TotalShipped    uint64  `json:"totalShipped"`
	TotalDropped    uint64  `json:"totalDropped"`
	Grants          uint64  `json:"grants"`
	Denials         uint64  `json:"denials"`
}

// Report returns the current summary.
func (b *ShedBudget) Report() ShedBudgetReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	return ShedBudgetReport{
		GlobalShipFloor: ShipFloor,
		TotalShipped:    b.shipped,
		TotalDropped:    b.dropped,
		Grants:          b.grants,
		Denials:         b.denials,
	}
}
