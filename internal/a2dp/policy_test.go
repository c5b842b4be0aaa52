package a2dp

import (
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/obs"
)

func badSignal() Signal  { return Signal{DeadlineMiss: true} }
func goodSignal() Signal { return Signal{} }

// TestGovernorDegradeAndShed: consecutive bad observations walk the
// state machine down Healthy → Degraded → Shedding at the shipped
// thresholds, stepping the bitpool toward the floor and shrinking the
// channel set.
func TestGovernorDegradeAndShed(t *testing.T) {
	g := NewGovernor(PolicyConfig{}, 35, 3)
	d := g.Observe(badSignal())
	if d.State != Healthy {
		t.Fatalf("one miss already degraded: %+v", d)
	}
	d = g.Observe(badSignal()) // 2nd consecutive: missesToDegrade
	if d.State != Degraded {
		t.Fatalf("state %v after 2 misses, want Degraded", d.State)
	}
	if d.Bitpool != 35-8 || d.BestChannels != 1 {
		t.Fatalf("degraded targets bitpool=%d channels=%d, want 27/1", d.Bitpool, d.BestChannels)
	}
	for i := 0; i < missesToShed; i++ {
		d = g.Observe(badSignal())
	}
	if d.State != Shedding {
		t.Fatalf("state %v after sustained misses, want Shedding", d.State)
	}
	if d.Bitpool != 35-16 {
		t.Fatalf("shedding bitpool %d, want 19", d.Bitpool)
	}
}

// TestGovernorBitpoolFloor: degradation never tunes below the floor,
// and never above a baseline that already sits under it.
func TestGovernorBitpoolFloor(t *testing.T) {
	for _, tc := range []struct{ base, want int }{{20, bitpoolFloor}, {10, 10}} {
		g := NewGovernor(PolicyConfig{}, tc.base, 3)
		var d Decision
		for i := 0; i < 10; i++ {
			d = g.Observe(badSignal())
		}
		if d.State != Shedding || d.Bitpool != tc.want {
			t.Fatalf("base %d: state %v bitpool %d, want Shedding/%d", tc.base, d.State, d.Bitpool, tc.want)
		}
	}
}

// TestGovernorRecoveryHysteresis: recovery needs recoverObservations
// consecutive clean observations per level, and a single bad observation
// resets the clean streak — the anti-flap property.
func TestGovernorRecoveryHysteresis(t *testing.T) {
	g := NewGovernor(PolicyConfig{}, 35, 3)
	for i := 0; i < 6; i++ {
		g.Observe(badSignal())
	}
	if g.State() != Shedding {
		t.Fatalf("setup: state %v", g.State())
	}
	// A clean streak one short, a miss, another one short: still
	// Shedding (streak reset).
	for i := 0; i < recoverObservations-1; i++ {
		g.Observe(goodSignal())
	}
	g.Observe(badSignal())
	for i := 0; i < recoverObservations-1; i++ {
		g.Observe(goodSignal())
	}
	if g.State() != Shedding {
		t.Fatalf("flapping link recovered early: %v", g.State())
	}
	// One more clean completes the streak: one level up.
	d := g.Observe(goodSignal())
	if d.State != Degraded {
		t.Fatalf("state %v after clean streak, want Degraded", d.State)
	}
	for i := 0; i < recoverObservations; i++ {
		d = g.Observe(goodSignal())
	}
	if d.State != Healthy {
		t.Fatalf("state %v after second streak, want Healthy", d.State)
	}
	if d.Bitpool != 35 || d.BestChannels != 3 {
		t.Fatalf("recovered targets %d/%d, want baseline 35/3", d.Bitpool, d.BestChannels)
	}
}

// TestGovernorInterferenceSignal: interference duty above the threshold
// counts as a bad observation even with deadlines met.
func TestGovernorInterferenceSignal(t *testing.T) {
	g := NewGovernor(PolicyConfig{}, 35, 3)
	g.Observe(Signal{InterferenceDuty: 0.3})
	d := g.Observe(Signal{InterferenceDuty: 0.3})
	if d.State != Degraded {
		t.Fatalf("30%% duty did not degrade: %v", d.State)
	}
	g2 := NewGovernor(PolicyConfig{}, 35, 3)
	g2.Observe(Signal{InterferenceDuty: 0.1})
	d = g2.Observe(Signal{InterferenceDuty: 0.1})
	if d.State != Healthy {
		t.Fatalf("10%% duty degraded: %v", d.State)
	}
}

// TestGovernorShipFloor: while Shedding, Drop decisions never push the
// shipped fraction below ShipFloor.
func TestGovernorShipFloor(t *testing.T) {
	g := NewGovernor(PolicyConfig{}, 35, 3)
	for i := 0; i < 6; i++ {
		g.Observe(badSignal())
	}
	if g.State() != Shedding {
		t.Fatalf("setup: state %v", g.State())
	}
	shipped, dropped := 0, 0
	for i := 0; i < 200; i++ {
		d := g.Observe(badSignal()) // stay in Shedding
		if d.Drop {
			dropped++
			g.RecordDropped(1)
		} else {
			shipped++
			g.RecordShipped(1)
		}
	}
	frac := float64(shipped) / float64(shipped+dropped)
	if frac < 0.8 {
		t.Fatalf("shipped fraction %.3f under sustained shedding, floor is 0.8", frac)
	}
	if dropped == 0 {
		t.Fatal("Shedding never dropped anything — the policy is inert")
	}
	rep := g.Report()
	if rep.Shipped != uint64(shipped) || rep.Dropped != uint64(dropped) {
		t.Fatalf("report %d/%d, counted %d/%d", rep.Shipped, rep.Dropped, shipped, dropped)
	}
}

// TestGovernorReportAndMetrics: time-in-state accounting covers every
// observed slot and the obs registry sees the same story.
func TestGovernorReportAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGovernor(PolicyConfig{Telemetry: reg}, 35, 3)
	for i := 0; i < 4; i++ {
		g.Observe(Signal{DeadlineMiss: true, Slots: 6})
	}
	for i := 0; i < 20; i++ {
		g.Observe(Signal{Slots: 6})
	}
	rep := g.Report()
	var total uint64
	for _, s := range rep.TimeInStateSlots {
		total += s
	}
	if total != 24*6 {
		t.Fatalf("time-in-state sums to %d slots, observed 144", total)
	}
	if rep.State != Healthy {
		t.Fatalf("final state %v, want Healthy", rep.State)
	}
	if rep.Transitions < 2 {
		t.Fatalf("%d transitions recorded, want ≥2 (down and back up)", rep.Transitions)
	}
	snap := reg.Snapshot()
	var transTotal int64
	found := false
	for _, fam := range snap.Families {
		switch fam.Name {
		case "bluefi_a2dp_health_transitions_total":
			for _, m := range fam.Metrics {
				transTotal += m.Value
			}
		case "bluefi_a2dp_health_state":
			found = true
			if fam.Metrics[0].Value != int64(Healthy) {
				t.Fatalf("health gauge %d, want %d", fam.Metrics[0].Value, int64(Healthy))
			}
		}
	}
	if !found {
		t.Fatal("health gauge not registered")
	}
	if transTotal != int64(rep.Transitions) {
		t.Fatalf("transition counters sum to %d, report says %d", transTotal, rep.Transitions)
	}
}

// TestSchedulerSetBest: the degradation path swaps the best-channel set
// live — subsequent slots respect the new restriction, invalid channels
// are refused, and the accessor reflects the active set.
func TestSchedulerSetBest(t *testing.T) {
	s := newTestScheduler(t, []int{11, 15, 20})
	if err := s.SetBest([]int{77}); err == nil {
		t.Fatal("channel outside the AFH set accepted")
	}
	if err := s.SetBest([]int{15}); err != nil {
		t.Fatal(err)
	}
	if got := s.BestChannels(); len(got) != 1 || got[0] != 15 {
		t.Fatalf("BestChannels() = %v, want [15]", got)
	}
	frames, _ := sbcFrames(t, 2)
	for i := 0; i < 20; i++ {
		segs, err := s.ScheduleMedia(frames, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range segs {
			if sp.Channel != 15 {
				t.Fatalf("scheduled on channel %d after SetBest([15])", sp.Channel)
			}
		}
	}
	// Restore the wider set: other channels reappear.
	if err := s.SetBest([]int{11, 15, 20}); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		segs, err := s.ScheduleMedia(frames, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range segs {
			seen[sp.Channel] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("restored set still pinned: channels seen %v", seen)
	}
}

// TestReslotUnderSustainedMisses: the rehearsal-gated retransmission
// path under a worst case — every slot "fails" and is reslotted many
// times in a row. Invariants: clocks advance strictly monotonically with
// no overlap, every slot is a master-TX slot on a best-set channel, the
// payload is preserved while the clock is re-stamped, and the scheduler
// keeps handing out usable slots afterwards.
func TestReslotUnderSustainedMisses(t *testing.T) {
	best := []int{11, 15, 20}
	s := newTestScheduler(t, best)
	allowed := map[int]bool{11: true, 15: true, 20: true}
	frames, _ := sbcFrames(t, 2)
	segs, err := s.ScheduleMedia(frames, 128)
	if err != nil {
		t.Fatal(err)
	}
	sp := segs[0]
	payload := string(sp.Packet.Payload)
	adv := uint32(2 * ((bt.DH5.Slots() + 1) / 2)) // even-rounded slot advance
	prev := sp.Clock
	for miss := 0; miss < 100; miss++ {
		next := s.Reslot(sp)
		if uint32(next.Clock)-uint32(prev) < adv {
			t.Fatalf("miss %d: reslot to clock %d overlaps previous packet at %d", miss, next.Clock, prev)
		}
		if !next.Clock.IsMasterTxSlot() {
			t.Fatalf("miss %d: reslot landed off a master-TX slot", miss)
		}
		if !allowed[next.Channel] {
			t.Fatalf("miss %d: reslot to channel %d outside the best set", miss, next.Channel)
		}
		if string(next.Packet.Payload) != payload {
			t.Fatalf("miss %d: payload corrupted across reslot", miss)
		}
		if next.Packet.Clock != uint32(next.Clock) {
			t.Fatalf("miss %d: packet clock not re-stamped", miss)
		}
		if next.SkippedSlots < sp.SkippedSlots {
			t.Fatalf("miss %d: skipped-slot accounting went backwards", miss)
		}
		prev = next.Clock
		sp = next
	}
	// The scheduler survives the storm: fresh media still schedules
	// after (not overlapping) the last reslotted packet.
	segs, err = s.ScheduleMedia(frames, 128)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(segs[0].Clock)-uint32(prev) < adv {
		t.Fatalf("post-storm packet at clock %d overlaps the reslotted one at %d", segs[0].Clock, prev)
	}
}
