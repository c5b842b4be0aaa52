package a2dp

import "testing"

// driveShedding walks a governor into Shedding (2 misses to Degraded, 4
// more to Shedding with the defaults) and then runs `packets` bad
// observations, recording the drop decision each produced and the
// shipped/dropped accounting a stream would keep.
func driveShedding(g *Governor, packets int) []bool {
	for i := 0; i < 6; i++ {
		g.Observe(Signal{DeadlineMiss: true})
	}
	var drops []bool
	for i := 0; i < packets; i++ {
		d := g.Observe(Signal{DeadlineMiss: true})
		drops = append(drops, d.Drop)
		if d.Drop {
			g.RecordDropped(1)
		} else {
			g.RecordShipped(1)
		}
	}
	return drops
}

// TestLoneGovernorShipFloorRegression pins the exact drop-decision
// sequence of a governor WITHOUT a coordinator: enabling Degrade on a
// single stream must behave precisely as before the SessionManager
// existed. The expected prefix is the committed single-stream contract
// (ShipFloor ⇒ the first drop once five packets are in flight, then
// every 5th); if this test moves, the single-stream chaos suite's ≥80%
// bound moves with it.
func TestLoneGovernorShipFloorRegression(t *testing.T) {
	g := NewGovernor(PolicyConfig{}, 53, 3)
	drops := driveShedding(g, 20)
	want := []bool{
		false, false, false, false, false,
		true, false, false, false, false, // 1 drop per 5 packets from here
		true, false, false, false, false,
		true, false, false, false, false,
	}
	for i := range want {
		if drops[i] != want[i] {
			t.Fatalf("lone-governor drop sequence diverged at packet %d: got %v, want %v\nfull: %v",
				i, drops[i], want[i], drops)
		}
	}
	rep := g.Report()
	shipped := float64(rep.Shipped) / float64(rep.Shipped+rep.Dropped)
	if shipped < 0.8 {
		t.Fatalf("lone governor shipped %.3f, below its own floor", shipped)
	}
}

// TestCoordinatedGovernorMatchesLoneFloor: one session behind the fleet
// budget must get the same effective floor as a lone stream — the
// coordination plane changes nothing until there is someone to share
// with.
func TestCoordinatedGovernorMatchesLoneFloor(t *testing.T) {
	b := NewShedBudget(ShedBudgetConfig{})
	if err := b.Register("solo"); err != nil {
		t.Fatal(err)
	}
	g := NewGovernor(PolicyConfig{Coordinator: b, SessionID: "solo"}, 53, 3)
	lone := NewGovernor(PolicyConfig{}, 53, 3)
	got := driveShedding(g, 40)
	want := driveShedding(lone, 40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coordinated single session diverged from lone stream at packet %d: got %v want %v",
				i, got[i], want[i])
		}
	}
	rep := b.Report()
	if rep.TotalShipped+rep.TotalDropped == 0 {
		t.Fatal("budget saw no forwarded accounting")
	}
}

// TestCoordinatedGovernorSharesBudget: two coordinated governors in
// Shedding must both keep shedding (neither starved) while the fleet
// floor holds — one shared ledger in place of isolated per-stream
// floors.
func TestCoordinatedGovernorSharesBudget(t *testing.T) {
	b := NewShedBudget(ShedBudgetConfig{})
	govs := map[string]*Governor{}
	for _, id := range []string{"one", "two"} {
		if err := b.Register(id); err != nil {
			t.Fatal(err)
		}
		govs[id] = NewGovernor(PolicyConfig{Coordinator: b, SessionID: id}, 53, 3)
	}
	drops := map[string]int{}
	for _, id := range []string{"one", "two"} {
		for i := 0; i < 6; i++ {
			govs[id].Observe(Signal{DeadlineMiss: true})
		}
	}
	for i := 0; i < 200; i++ {
		for _, id := range []string{"one", "two"} {
			d := govs[id].Observe(Signal{DeadlineMiss: true})
			if d.Drop {
				govs[id].RecordDropped(1)
				drops[id]++
			} else {
				govs[id].RecordShipped(1)
			}
		}
	}
	for id, n := range drops {
		if n == 0 {
			t.Fatalf("session %s starved: zero grants in 200 contended packets", id)
		}
	}
	rep := b.Report()
	shipped := float64(rep.TotalShipped) / float64(rep.TotalShipped+rep.TotalDropped)
	if shipped < 0.8 {
		t.Fatalf("fleet shipped %.3f under two-way contention, floor is 0.8", shipped)
	}
	// Report must never touch the ledger: a read-only Report in between
	// decisions must not change the accounting.
	before := govs["one"].Report()
	_ = b.Report()
	after := govs["one"].Report()
	if before.Shipped != after.Shipped || before.Dropped != after.Dropped {
		t.Fatal("Report mutated accounting")
	}
}
