package bluefi

// Multi-session A2DP acceptance tests (DESIGN.md §14): the
// SessionManager's admission projection, eviction, the per-session
// deadline record, the session SLO specs, and the EDF job queue the
// sessions ride on.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bluefi/internal/a2dp"
)

// lightAudio is the session shape the suite multiplexes: DM1 packets (a
// fast synthesis unit) carrying 4 SBC frames at 16 kHz mono — 7 L2CAP
// segments per media packet every ~6.4 slots — with a generous slot
// budget so only injected latency can miss.
func lightAudio(lap uint32) AudioConfig {
	return AudioConfig{
		Device:          Device{LAP: lap, UAP: 0x9A},
		PacketType:      DM1,
		SBC:             SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		FramesPerPacket: 4,
		SlotBudget:      time.Minute,
	}
}

func TestSessionManagerAdmitSendEvict(t *testing.T) {
	reg := NewTelemetry()
	pool, err := NewPool(Options{Mode: RealTime, Telemetry: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.25})
	if err != nil {
		t.Fatal(err)
	}

	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := sm.Admit(SessionConfig{
			ID:    fmt.Sprintf("s%d", i),
			Audio: lightAudio(uint32(0x100 + i)),
		})
		if err != nil {
			t.Fatalf("admit s%d: %v", i, err)
		}
		sessions = append(sessions, s)
	}

	const packets = 6
	for p := 0; p < packets; p++ {
		for _, s := range sessions {
			txs, err := s.Send(chaosTone(s.Stream(), p*s.Stream().SamplesPerSend()))
			if err != nil {
				t.Fatalf("session %s send %d: %v", s.ID(), p, err)
			}
			if txs == nil {
				t.Fatalf("session %s send %d shed without faults or shedding state", s.ID(), p)
			}
		}
	}

	reps := sm.Sessions()
	if len(reps) != 3 {
		t.Fatalf("%d session reports, want 3", len(reps))
	}
	for _, rep := range reps {
		if rep.Shipped != packets || rep.Dropped != 0 || rep.ShippedRatio != 1 {
			t.Fatalf("session %s shipped %d dropped %d ratio %v, want %d/0/1",
				rep.ID, rep.Shipped, rep.Dropped, rep.ShippedRatio, packets)
		}
		if rep.Segments == 0 {
			t.Fatalf("session %s recorded no synthesized segments", rep.ID)
		}
		if rep.DeadlineMisses != 0 {
			t.Fatalf("session %s missed %d deadlines under a minute-long budget", rep.ID, rep.DeadlineMisses)
		}
	}

	mrep := sm.Report()
	if mrep.Budget.TotalShipped != packets*3 {
		t.Fatalf("budget shipped %d, want %d", mrep.Budget.TotalShipped, packets*3)
	}
	if mrep.LastProj.Sessions != 3 || mrep.LastProj.MissRatio > 0.05 {
		t.Fatalf("last projection %+v, want 3 sessions within the miss budget", mrep.LastProj)
	}

	// Eviction: removed from the fleet, stream stays usable, decoupled
	// from the budget.
	if !sm.Evict("s1") {
		t.Fatal("Evict(s1) = false for a live session")
	}
	if sm.Evict("s1") {
		t.Fatal("double eviction reported success")
	}
	if got := len(sm.Sessions()); got != 2 {
		t.Fatalf("%d sessions after eviction, want 2", got)
	}
	evicted := sessions[1]
	if txs, err := evicted.Send(chaosTone(evicted.Stream(), 0)); err != nil || txs == nil {
		t.Fatalf("evicted session's stream must stay usable: txs=%v err=%v", txs, err)
	}
	if rep := evicted.Report(); !rep.Evicted {
		t.Fatal("evicted session's report must say so")
	}
}

func TestSessionManagerValidation(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Admit(SessionConfig{Audio: lightAudio(1)}); err == nil {
		t.Fatal("empty session ID must be rejected")
	}
	if _, err := sm.Admit(SessionConfig{ID: "dup", Audio: lightAudio(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Admit(SessionConfig{ID: "dup", Audio: lightAudio(2)}); err == nil {
		t.Fatal("duplicate session ID must be rejected")
	}

	closed, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := closed.NewSessionManager(SessionManagerConfig{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("manager on a closed pool: %v, want ErrPoolClosed", err)
	}
}

// TestSessionManagerAdmissionKnee ramps identical sessions into a
// single-worker pool with a pinned per-segment service time until the
// projection refuses — the unit-scale version of the capacity-knee
// soak. The knee must exist, sit past at least one admitted session,
// and be sticky: the session after a rejection is rejected too.
func TestSessionManagerAdmissionKnee(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	var rejection error
	for i := 0; i < 50 && rejection == nil; i++ {
		_, err := sm.Admit(SessionConfig{ID: fmt.Sprintf("s%d", i), Audio: lightAudio(uint32(i + 1))})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrAdmissionRejected):
			rejection = err
		default:
			t.Fatalf("admit s%d failed outside the admission contract: %v", i, err)
		}
	}
	if rejection == nil {
		t.Fatal("50 sessions never hit the 1-worker knee")
	}
	if admitted == 0 {
		t.Fatal("the very first session must fit an idle pool")
	}
	if _, err := sm.Admit(SessionConfig{ID: "late", Audio: lightAudio(99)}); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("admission past the knee: %v, want ErrAdmissionRejected", err)
	}
	if proj := sm.Report().LastProj; proj.MissRatio <= 0.05 {
		t.Fatalf("last projection %+v should show the refused miss ratio", proj)
	}
}

func TestSessionSLOSpecs(t *testing.T) {
	reg := NewTelemetry()
	pool, err := NewPool(Options{Mode: RealTime, Telemetry: reg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	specs := sm.SessionSLOSpecs()
	if len(specs) != 2 {
		t.Fatalf("%d session SLO specs, want 2", len(specs))
	}
	byName := map[string]int{}
	for i, sp := range specs {
		byName[sp.Name] = i
	}
	di, ok := byName["a2dp_session_delivery"]
	if !ok {
		t.Fatalf("missing a2dp_session_delivery spec: %+v", specs)
	}
	if specs[di].Objective != 0.8 {
		t.Fatalf("delivery objective %v, want the 0.8 global floor", specs[di].Objective)
	}
	if _, ok := byName["a2dp_session_deadline"]; !ok {
		t.Fatalf("missing a2dp_session_deadline spec: %+v", specs)
	}

	s, err := sm.Admit(SessionConfig{ID: "s", Audio: lightAudio(1)})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if _, err := s.Send(chaosTone(s.Stream(), p)); err != nil {
			t.Fatal(err)
		}
	}
	good, total := specs[di].Indicator()
	if good != 3 || total != 3 {
		t.Fatalf("delivery indicator %v/%v after 3 clean sends, want 3/3", good, total)
	}
	good, total = specs[byName["a2dp_session_deadline"]].Indicator()
	if total == 0 || good != total {
		t.Fatalf("deadline indicator %v/%v after clean sends, want all good", good, total)
	}

	// No telemetry, no specs: the SLO layer is opt-in like everywhere
	// else in the library.
	bare, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bsm, err := bare.NewSessionManager(SessionManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if specs := bsm.SessionSLOSpecs(); specs != nil {
		t.Fatalf("specs without telemetry: %+v, want nil", specs)
	}
}

// TestJobQueueEDF pins the pool-level EDF contract: pops come out
// earliest-deadline-first with deadline-less jobs last, and equal
// deadlines in submission order.
func TestJobQueueEDF(t *testing.T) {
	mkJob := func(deadline uint64) *poolJob {
		return &poolJob{done: make(chan struct{}), deadline: deadline}
	}

	t.Run("PopOrder", func(t *testing.T) {
		q := newJobQueue(4, nil)
		jobs := []*poolJob{mkJob(30), mkJob(noDeadline), mkJob(10), mkJob(20)}
		for _, j := range jobs {
			if err := q.push(j); err != nil {
				t.Fatal(err)
			}
		}
		want := []*poolJob{jobs[2], jobs[3], jobs[0], jobs[1]}
		for i, w := range want {
			if got := q.pop(); got != w {
				t.Fatalf("pop %d: deadline %d, want %d", i, got.deadline, w.deadline)
			}
		}
	})

	t.Run("FIFOWithinDeadline", func(t *testing.T) {
		q := newJobQueue(3, nil)
		a, b := mkJob(10), mkJob(10)
		if err := q.push(a); err != nil {
			t.Fatal(err)
		}
		if err := q.push(b); err != nil {
			t.Fatal(err)
		}
		if got := q.pop(); got != a {
			t.Fatal("equal deadlines must pop in submission order")
		}
	})

}

// TestPoolQueueOrderWithoutEDF pins the pool's single queue order on a
// pool built without Options.EDF: deadline-stamped jobs pop earliest-
// deadline-first, and deadline-less jobs run FIFO behind them.
func TestPoolQueueOrderWithoutEDF(t *testing.T) {
	// Two workers give the queue room for 8 jobs; one stays parked on
	// hold for the whole test, so a single worker drains the queue.
	pool, err := NewPool(Options{Mode: RealTime}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	hold := make(chan struct{})
	defer close(hold)

	// Park both workers so every later job waits in the queue.
	gate := make(chan struct{})
	for _, wait := range []chan struct{}{hold, gate} {
		started := make(chan struct{})
		blocker := &poolJob{done: make(chan struct{}), deadline: noDeadline,
			fn: func(*Synthesizer) error { close(started); <-wait; return nil }}
		if err := pool.q.push(blocker); err != nil {
			t.Fatal(err)
		}
		<-started
	}

	var mu sync.Mutex
	var order []string
	var jobs []*poolJob
	for _, j := range []struct {
		name     string
		deadline uint64
	}{{"batch0", noDeadline}, {"d30", 30}, {"batch1", noDeadline}, {"d10", 10}, {"d20", 20}} {
		name := j.name
		pj := &poolJob{done: make(chan struct{}), deadline: j.deadline, fn: func(*Synthesizer) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}}
		if err := pool.q.push(pj); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pj)
	}
	close(gate)
	for _, pj := range jobs {
		<-pj.done
	}
	want := []string{"d10", "d20", "d30", "batch0", "batch1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("pool ran %v, want %v", order, want)
	}
}

// TestSessionEvictedNeverSheds: an evicted session leaves the ledger's
// live set, so its governor is never granted a drop however long it
// sits in Shedding, and its traffic no longer reaches the ledger — while
// a live session's governor on the same ledger is granted drops.
func TestSessionEvictedNeverSheds(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	live, err := sm.Admit(SessionConfig{ID: "live", Audio: lightAudio(1)})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := sm.Admit(SessionConfig{ID: "gone", Audio: lightAudio(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !sm.Evict("gone") {
		t.Fatal("Evict(gone) = false for a live session")
	}

	// Walk a governor into Shedding and ask for a drop on every packet.
	const packets = 100
	shed := func(s *Session) int {
		g := s.stream.gov
		for i := 0; i < 6; i++ {
			g.Observe(a2dp.Signal{DeadlineMiss: true})
		}
		drops := 0
		for i := 0; i < packets; i++ {
			if g.Observe(a2dp.Signal{DeadlineMiss: true}).Drop {
				g.RecordDropped(1)
				drops++
			} else {
				g.RecordShipped(1)
			}
		}
		return drops
	}
	if n := shed(gone); n != 0 {
		t.Fatalf("evicted session granted %d drops", n)
	}
	if n := shed(live); n == 0 {
		t.Fatal("live session never granted a drop — the ledger is inert")
	}
	if rep := sm.Report().Budget; rep.TotalShipped+rep.TotalDropped != packets {
		t.Fatalf("ledger counted %d+%d packets, want only the live session's %d",
			rep.TotalShipped, rep.TotalDropped, packets)
	}
}

// FuzzSessionAdmit drives the admission controller with arbitrary
// session shapes: whatever the inputs, Admit must decide without
// panicking, refuse duplicates, and keep Evict/accounting consistent
// for whatever it admits.
func FuzzSessionAdmit(f *testing.F) {
	f.Add("s", 0, 0, uint8(0))
	f.Add("", 1, 16000, uint8(1))
	f.Add("dup", -3, 44100, uint8(9))
	f.Add("w", 200, 48000, uint8(5))
	f.Add("knee", 8, 32000, uint8(3))
	f.Fuzz(func(t *testing.T, id string, frames int, rate int, pt uint8) {
		pool, err := NewPool(Options{Mode: RealTime}, 1)
		if err != nil {
			t.Skip("pool unavailable")
		}
		defer pool.Close()
		sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SessionConfig{
			ID: id,
			Audio: AudioConfig{
				Device:          Device{LAP: 1, UAP: 2},
				PacketType:      PacketType(pt),
				FramesPerPacket: frames,
				SlotBudget:      time.Minute,
			},
		}
		if rate != 0 {
			cfg.Audio.SBC = SBCConfig{SampleRateHz: rate, Blocks: 4, Subbands: 4, Bitpool: 31}
		}
		s, err := sm.Admit(cfg)
		if err != nil {
			// Rejections are legitimate — a lone session can demand more
			// than one worker sustains — but they must be typed errors,
			// never panics, and must leave the manager reusable.
			if _, err2 := sm.Admit(SessionConfig{ID: "probe", Audio: lightAudio(7)}); err2 != nil &&
				!errors.Is(err2, ErrAdmissionRejected) {
				t.Fatalf("manager unusable after rejecting %q: %v", id, err2)
			}
			return
		}
		if id == "" {
			t.Fatal("empty session ID admitted")
		}
		if _, err := sm.Admit(cfg); err == nil {
			t.Fatal("duplicate ID admitted")
		}
		if rep := s.Report(); rep.ID != id {
			t.Fatalf("session report %+v inconsistent with admission", rep)
		}
		if !sm.Evict(id) {
			t.Fatal("evicting an admitted session failed")
		}
	})
}

// TestShedGrantsMatchPolicySheds pins the ledger's grant contract end to
// end: every grant the stream's governor obtains is followed by exactly
// one policy shed, so Budget.Grants counts real drops. A one-nanosecond
// slot budget makes every packet miss its deadline, walking the governor
// into Shedding with no fault injector, so every (nil, nil) Send is a
// policy shed.
func TestShedGrantsMatchPolicySheds(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	audio := lightAudio(0x5ed)
	audio.FramesPerPacket = 1
	audio.SlotBudget = time.Nanosecond
	s, err := sm.Admit(SessionConfig{ID: "shed", Audio: audio})
	if err != nil {
		t.Fatal(err)
	}
	sheds := uint64(0)
	// Six misses reach Shedding; from there the 0.8 floor grants about
	// one shed in five packets.
	const sends = 32
	for i := 0; i < sends; i++ {
		out, err := s.Send(chaosTone(s.Stream(), i*s.Stream().SamplesPerSend()))
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("the stream never shed — the test no longer reaches Shedding")
	}
	// A grant from the last Send is still pending: its shed is the next
	// packet's.
	if s.stream.dropNext {
		sheds++
	}
	if grants := sm.Report().Budget.Grants; grants != sheds {
		t.Fatalf("ledger granted %d drops for %d policy sheds", grants, sheds)
	}
	t.Logf("%d policy sheds in %d packets, each granted once", sheds, sends)
}

// TestSessionAccountingAgrees pins the one-owner accounting: a session
// reports its governor's delivery counts and its stream's deadline
// record, the fleet ledger holds their sums, the session SLOs read
// exactly the ledger totals and the registry's audio deadline family,
// and the marshalled manager report carries each count once.
// A one-nanosecond slot budget walks both sessions into Shedding.
func TestSessionAccountingAgrees(t *testing.T) {
	reg := NewTelemetry()
	pool, err := NewPool(Options{Mode: RealTime, Telemetry: reg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	for i := 0; i < 2; i++ {
		audio := lightAudio(uint32(0x5e0 + i))
		audio.FramesPerPacket = 1
		audio.SlotBudget = time.Nanosecond
		s, err := sm.Admit(SessionConfig{ID: fmt.Sprintf("acct%d", i), Audio: audio})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	const sends = 32
	for i := 0; i < sends; i++ {
		for _, s := range sessions {
			if _, err := s.Send(chaosTone(s.Stream(), i*s.Stream().SamplesPerSend())); err != nil {
				t.Fatal(err)
			}
		}
	}

	var shipped, dropped, segments, late uint64
	for _, s := range sessions {
		rep, gov := s.Report(), s.Stream().Report()
		if rep.Shipped != gov.Shipped || rep.Dropped != gov.Dropped {
			t.Fatalf("session %s reports %d/%d shipped/dropped, its stream %d/%d",
				s.ID(), rep.Shipped, rep.Dropped, gov.Shipped, gov.Dropped)
		}
		if rep.State != HealthShedding {
			t.Fatalf("session %s ended %v — the test no longer reaches Shedding", s.ID(), rep.State)
		}
		shipped += rep.Shipped
		dropped += rep.Dropped
		segments += rep.Segments
		late += rep.DeadlineMisses
	}
	budget := sm.Report().Budget
	if budget.TotalShipped != shipped || budget.TotalDropped != dropped {
		t.Fatalf("ledger holds %d/%d shipped/dropped, sessions sum to %d/%d",
			budget.TotalShipped, budget.TotalDropped, shipped, dropped)
	}
	if dropped == 0 {
		t.Fatal("no packet was shed — the test no longer exercises the ledger")
	}

	specs := map[string]func() (float64, float64){}
	for _, sp := range sm.SessionSLOSpecs() {
		specs[sp.Name] = sp.Indicator
	}
	good, total := specs["a2dp_session_delivery"]()
	if good != float64(budget.TotalShipped) || total != float64(budget.TotalShipped+budget.TotalDropped) {
		t.Fatalf("delivery indicator %v/%v, ledger %d/%d", good, total,
			budget.TotalShipped, budget.TotalShipped+budget.TotalDropped)
	}
	audio := newAudioMetrics(reg)
	count, misses := audio.slack.Count(), audio.late.Value()
	good, total = specs["a2dp_session_deadline"]()
	if good != float64(count-misses) || total != float64(count) {
		t.Fatalf("deadline indicator %v/%v, audio family %d/%d", good, total, count-misses, count)
	}
	if uint64(count) != segments || uint64(misses) != late {
		t.Fatalf("audio family %d segments / %d late, sessions sum to %d / %d", count, misses, segments, late)
	}

	raw, err := json.Marshal(sm.Report())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Sessions []json.RawMessage }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Sessions) != len(sessions) {
		t.Fatalf("marshalled report carries %d sessions, want %d", len(doc.Sessions), len(sessions))
	}
	for _, js := range doc.Sessions {
		for _, key := range []string{"id", "state", "shipped", "dropped", "shippedRatio", "segments", "deadlineMisses", "transitions"} {
			if n := strings.Count(string(js), `"`+key+`":`); n != 1 {
				t.Errorf("marshalled session report has key %q %d times, want once: %s", key, n, js)
			}
		}
	}
}
