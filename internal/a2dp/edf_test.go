package a2dp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestEDFLessTotalOrder(t *testing.T) {
	a := SlotJob{Session: "a", Seq: 1, DeadlineSlot: 10}
	b := SlotJob{Session: "b", Seq: 0, DeadlineSlot: 12}
	if !EDFLess(a, b) || EDFLess(b, a) {
		t.Fatal("earlier deadline must win regardless of session/seq")
	}
	c := SlotJob{Session: "a", Seq: 5, DeadlineSlot: 12}
	if !EDFLess(c, b) {
		t.Fatal("deadline tie must break on session name")
	}
	d := SlotJob{Session: "b", Seq: 1, DeadlineSlot: 12}
	if !EDFLess(b, d) {
		t.Fatal("session tie must break on seq")
	}
	inf := SlotJob{Session: "a", DeadlineSlot: math.Inf(1)}
	if EDFLess(inf, a) {
		t.Fatal("deadline-less job must sort after deadline-bearing work")
	}
}

// TestSimulateRunsTightDeadlineFirst pins the inversion EDF exists to
// fix: a long-deadline job is submitted first, a tight-deadline job
// right behind it. Submission order would finish the tight job at slot
// 8, past its deadline; EDF runs it first and makes both.
func TestSimulateRunsTightDeadlineFirst(t *testing.T) {
	jobs := []SlotJob{
		{Session: "slow", Seq: 0, ArrivalSlot: 0, DeadlineSlot: 100, ServiceSlots: 4},
		{Session: "tight", Seq: 1, ArrivalSlot: 0, DeadlineSlot: 5, ServiceSlots: 4},
	}
	res := Simulate(jobs, 1)
	if res.Misses != 0 {
		t.Fatalf("misses = %d, want 0", res.Misses)
	}
	// tight finishes at 4 (slack 1), slow at 8 (slack 92).
	if res.MinSlackSlots != 1 {
		t.Fatalf("min slack %v, want 1", res.MinSlackSlots)
	}
}

func TestSimulateDeterministicReplay(t *testing.T) {
	demands := []SessionDemand{
		{ID: "b", SegmentsPerPacket: 3, SegmentSlots: 2, PacketPeriodSlots: 10},
		{ID: "a", SegmentsPerPacket: 1, SegmentSlots: 6, PacketPeriodSlots: 12, PhaseSlots: 3},
		{ID: "c", SegmentsPerPacket: 2, SegmentSlots: 4, PacketPeriodSlots: 9, PhaseSlots: 1},
	}
	cfg := AdmissionConfig{Workers: 2, ServiceSlots: 1.5, QueueDepth: 3}
	first := ProjectAdmission(demands, cfg)
	// Caller ordering must not matter: BuildJobs sorts by ID.
	reversed := []SessionDemand{demands[2], demands[0], demands[1]}
	for i := 0; i < 5; i++ {
		if got := ProjectAdmission(reversed, cfg); !reflect.DeepEqual(got, first) {
			t.Fatalf("replay %d diverged: %+v vs %+v", i, got, first)
		}
	}
	if first.Sessions != 3 || first.Jobs == 0 {
		t.Fatalf("projection did not score the job set: %+v", first)
	}
}

func TestSimulateBacklogConsumesCapacityWithoutScoring(t *testing.T) {
	demands := []SessionDemand{{ID: "s", SegmentsPerPacket: 1, SegmentSlots: 2, PacketPeriodSlots: 4}}
	clean := ProjectAdmission(demands, AdmissionConfig{Workers: 1, ServiceSlots: 2})
	backlogged := ProjectAdmission(demands, AdmissionConfig{Workers: 1, ServiceSlots: 2, QueueDepth: 16})
	if backlogged.Jobs != clean.Jobs {
		t.Fatalf("backlog jobs must not be scored: %d vs %d", backlogged.Jobs, clean.Jobs)
	}
	if backlogged.MinSlackSlots >= clean.MinSlackSlots {
		t.Fatalf("a 16-job backlog must eat into slack: %v vs %v", backlogged.MinSlackSlots, clean.MinSlackSlots)
	}
}

// TestProjectAdmissionMonotoneRamp grows a homogeneous fleet and checks
// that the projected miss ratio never improves with more sessions — the
// property the capacity-knee soak gates on.
func TestProjectAdmissionMonotoneRamp(t *testing.T) {
	cfg := AdmissionConfig{Workers: 2, ServiceSlots: 1.2}
	prev := -1.0
	prevUtil := -1.0
	for n := 1; n <= 12; n++ {
		demands := make([]SessionDemand, n)
		for i := range demands {
			demands[i] = SessionDemand{
				ID:                string(rune('a' + i)),
				SegmentsPerPacket: 2,
				SegmentSlots:      2,
				PacketPeriodSlots: 8,
				PhaseSlots:        float64(i % 4),
			}
		}
		p := ProjectAdmission(demands, cfg)
		if p.MissRatio < prev-1e-9 {
			t.Fatalf("miss ratio regressed at %d sessions: %v after %v", n, p.MissRatio, prev)
		}
		if p.Utilization <= prevUtil {
			t.Fatalf("utilization must grow with the fleet: %v after %v", p.Utilization, prevUtil)
		}
		prev, prevUtil = p.MissRatio, p.Utilization
	}
	if prev == 0 {
		t.Fatal("ramp never reached the knee; tighten the test workload")
	}
}

// TestBuildJobsTruncation offers 40 sessions × 16 packets × 8 segments
// (5120 jobs), past the 4096-job cap.
func TestBuildJobsTruncation(t *testing.T) {
	demands := make([]SessionDemand, 40)
	for i := range demands {
		demands[i] = SessionDemand{ID: fmt.Sprintf("s%02d", i), SegmentsPerPacket: 8, SegmentSlots: 2, PacketPeriodSlots: 4}
	}
	cfg := AdmissionConfig{Workers: 1}
	jobs := BuildJobs(demands, cfg)
	if len(jobs) != maxJobs {
		t.Fatalf("job set = %d, want clipped at %d", len(jobs), maxJobs)
	}
	proj := ProjectAdmission(demands, cfg)
	if !proj.Truncated {
		t.Fatal("projection must flag the truncation")
	}
}
