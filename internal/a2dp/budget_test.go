package a2dp

import (
	"testing"

	"bluefi/internal/obs"
)

// shedRound simulates one media packet for a session that wants to
// drop: request the budget, and record the granted drop or the forced
// ship. Returns whether the drop was granted.
func shedRound(b *ShedBudget, id string) bool {
	if b.Grant(id) {
		b.RecordDropped(id, 1)
		return true
	}
	b.RecordShipped(id, 1)
	return false
}

func TestShedBudgetGlobalFloor(t *testing.T) {
	b := NewShedBudget(ShedBudgetConfig{})
	if err := b.Register("s"); err != nil {
		t.Fatal(err)
	}
	drops := 0
	const packets = 1000
	for i := 0; i < packets; i++ {
		if shedRound(b, "s") {
			drops++
		}
	}
	rep := b.Report()
	shipped := float64(rep.TotalShipped) / float64(rep.TotalShipped+rep.TotalDropped)
	if shipped < 0.8 {
		t.Fatalf("global shipped ratio %.3f below the 0.8 floor", shipped)
	}
	// The budget must actually be spent, not just conserved: a greedy
	// shedder gets (1-floor) of the traffic, within rounding.
	if drops < packets/5-5 {
		t.Fatalf("only %d drops granted of ~%d budget", drops, packets/5)
	}
}

// TestShedBudgetFaultLossesConsumeShare: unplanned losses recorded via
// RecordDropped must eat into the floor, so policy sheds stop before
// the floor is doubly broken.
func TestShedBudgetFaultLossesConsumeShare(t *testing.T) {
	b := NewShedBudget(ShedBudgetConfig{})
	if err := b.Register("s"); err != nil {
		t.Fatal(err)
	}
	// Fault storm: 30 of 100 packets lost without any grant.
	for i := 0; i < 70; i++ {
		b.RecordShipped("s", 1)
	}
	b.RecordDropped("s", 30)
	if b.Grant("s") {
		t.Fatal("grant after fault losses already broke the floor")
	}
	// Recovery: clean traffic re-earns budget.
	for i := 0; i < 100; i++ {
		b.RecordShipped("s", 1)
	}
	if !b.Grant("s") {
		t.Fatal("budget must recover once clean traffic dilutes the losses")
	}
}

func TestShedBudgetDeterministicReplay(t *testing.T) {
	run := func() []bool {
		b := NewShedBudget(ShedBudgetConfig{})
		for _, id := range []string{"c", "a", "b"} {
			if err := b.Register(id); err != nil {
				t.Fatal(err)
			}
		}
		var decisions []bool
		ids := []string{"a", "b", "c"}
		for i := 0; i < 300; i++ {
			id := ids[i%3]
			g := b.Grant(id)
			decisions = append(decisions, g)
			if g {
				b.RecordDropped(id, 1)
			} else {
				b.RecordShipped(id, 1)
			}
		}
		return decisions
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d decision %d diverged — replays must be byte-stable", trial, i)
			}
		}
	}
}

func TestShedBudgetLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewShedBudget(ShedBudgetConfig{Telemetry: reg})
	if got := b.Report().GlobalShipFloor; got != 0.8 {
		t.Fatalf("reported floor = %v, want 0.8", got)
	}
	if err := b.Register("s"); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("s"); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if b.Grant("ghost") {
		t.Fatal("unregistered sessions never get grants")
	}
	b.RecordShipped("ghost", 1) // must not panic or register
	b.RecordShipped("s", 5)
	b.Unregister("s")
	b.Unregister("s") // idempotent
	if b.Grant("s") {
		t.Fatal("grants after Unregister must be denied")
	}
	b.RecordDropped("s", 3) // outside the live set: not counted
	// Totals are cumulative while live: the eviction keeps the history.
	rep := b.Report()
	if rep.TotalShipped != 5 || rep.TotalDropped != 0 {
		t.Fatalf("report %+v, want 5 shipped / 0 dropped kept after unregister", rep)
	}
	if rep.Grants != 0 || rep.Denials != 0 {
		t.Fatalf("report %+v: requests outside the live set must not count", rep)
	}
	// Re-registration is allowed once the ID has left the live set.
	if err := b.Register("s"); err != nil {
		t.Fatal(err)
	}
}

// TestShedBudgetFloorBounds pins the rule's edge at ShipFloor: a fresh
// session may not drop, the first drop comes once five packets have
// shipped (1 ≤ 0.2 × 6, but not 0.2 × 5 in float64), and a drop right
// after it is denied.
func TestShedBudgetFloorBounds(t *testing.T) {
	b := NewShedBudget(ShedBudgetConfig{})
	if err := b.Register("s"); err != nil {
		t.Fatal(err)
	}
	if b.Grant("s") {
		t.Fatal("a session with no shipped packets granted a drop")
	}
	b.RecordShipped("s", 4)
	if b.Grant("s") {
		t.Fatal("granted a drop at four shipped packets")
	}
	b.RecordShipped("s", 1)
	if !b.Grant("s") {
		t.Fatal("denied the drop at five shipped packets")
	}
	b.RecordDropped("s", 1)
	if b.Grant("s") {
		t.Fatal("granted a second drop right after the first")
	}
}
