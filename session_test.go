package bluefi

// Multi-session A2DP acceptance tests (DESIGN.md §14): the
// SessionManager's admission projection, the bounded pending queue and
// its eviction-driven promotion, the per-session slack export, the
// session SLO specs, and the EDF job queue the sessions ride on.

import (
	"errors"
	"fmt"
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
			t.Fatalf("session %s exported no deadline-slack samples", rep.ID)
		}
		if rep.DeadlineMisses != 0 {
			t.Fatalf("session %s missed %d deadlines under a minute-long budget", rep.ID, rep.DeadlineMisses)
		}
		if rep.MinSlackSeconds <= 0 || rep.P99SlackSeconds <= 0 || rep.P50SlackSeconds < rep.P99SlackSeconds {
			t.Fatalf("session %s slack export inconsistent: min %v p50 %v p99 %v",
				rep.ID, rep.MinSlackSeconds, rep.P50SlackSeconds, rep.P99SlackSeconds)
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

func TestSessionManagerQueuePromotion(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.4, AdmissionQueue: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Fill to the knee via Enqueue: admittable sessions resolve
	// immediately, the first that does not is the queue head.
	var live []string
	var pHead *PendingSession
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("s%d", i)
		p, err := sm.Enqueue(SessionConfig{ID: id, Audio: lightAudio(uint32(i + 1))})
		if err != nil {
			t.Fatalf("enqueue %s below the knee: %v", id, err)
		}
		if _, ready, _ := p.Session(); !ready {
			pHead = p
			break
		}
		live = append(live, id)
	}
	if pHead == nil || len(live) == 0 {
		t.Fatalf("knee not found: %d live sessions", len(live))
	}
	if sm.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 parked session", sm.Pending())
	}

	// Queue capacity 2: one more parks, the next is refused outright.
	p2, err := sm.Enqueue(SessionConfig{ID: "second", Audio: lightAudio(90)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ready, _ := p2.Session(); ready {
		t.Fatal("second enqueue resolved with the pool at the knee")
	}
	if _, err := sm.Enqueue(SessionConfig{ID: "third", Audio: lightAudio(91)}); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("enqueue on a full queue: %v, want the rejection to propagate", err)
	}
	if _, err := sm.Enqueue(SessionConfig{ID: "second", Audio: lightAudio(92)}); err == nil {
		t.Fatal("duplicate pending ID must be refused")
	}

	// Evictions free headroom and promote in FIFO order: whenever
	// "second" has resolved, the head must have resolved first — the
	// queue never lets a later arrival jump it.
	fifoInvariant := func() {
		t.Helper()
		select {
		case <-p2.Done():
			select {
			case <-pHead.Done():
			default:
				t.Fatal("second promoted while the queue head was still parked")
			}
		default:
		}
	}
	fifoInvariant()
	for _, id := range live {
		if _, ready, _ := p2.Session(); ready {
			break
		}
		if !sm.Evict(id) {
			t.Fatalf("evicting live session %s failed", id)
		}
		fifoInvariant()
	}
	for _, p := range []*PendingSession{pHead, p2} {
		s, ready, err := p.Session()
		if !ready || err != nil || s == nil {
			t.Fatalf("parked session unresolved after draining the fleet: ready=%v err=%v", ready, err)
		}
		if txs, err := s.Send(chaosTone(s.Stream(), 0)); err != nil || txs == nil {
			t.Fatalf("promoted session %s cannot send: txs=%v err=%v", s.ID(), txs, err)
		}
	}
	if sm.Pending() != 0 {
		t.Fatalf("pending = %d after promotions, want 0", sm.Pending())
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
// earliest-deadline-first with deadline-less jobs last, and DropOldest
// under EDF evicts the job with the most slack to spare.
func TestJobQueueEDF(t *testing.T) {
	mkJob := func(deadline uint64) *poolJob {
		return &poolJob{done: make(chan struct{}), deadline: deadline}
	}

	t.Run("PopOrder", func(t *testing.T) {
		q := newJobQueue(4, Reject, nil)
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
		q := newJobQueue(3, Reject, nil)
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

	t.Run("DropOldestEvictsMostSlack", func(t *testing.T) {
		q := newJobQueue(2, DropOldest, nil)
		slack, tight := mkJob(100), mkJob(5)
		if err := q.push(slack); err != nil {
			t.Fatal(err)
		}
		if err := q.push(tight); err != nil {
			t.Fatal(err)
		}
		mid := mkJob(50)
		if err := q.push(mid); err != nil {
			t.Fatalf("DropOldest refused the new job: %v", err)
		}
		select {
		case <-slack.done:
			if !errors.Is(slack.err, ErrJobShed) {
				t.Fatalf("evicted job failed with %v, want ErrJobShed", slack.err)
			}
		default:
			t.Fatal("the most-slack job was not the one evicted")
		}
		if got := q.pop(); got != tight {
			t.Fatalf("pop deadline %d, want the tight job", got.deadline)
		}
		if got := q.pop(); got != mid {
			t.Fatalf("pop deadline %d, want the new mid job", got.deadline)
		}
	})
}

// TestPoolQueueOrderWithoutEDF pins the pool's single queue order on a
// pool built without Options.EDF: deadline-stamped jobs pop earliest-
// deadline-first, and deadline-less jobs run FIFO behind them.
func TestPoolQueueOrderWithoutEDF(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime, QueueDepth: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Park the only worker so every later job waits in the queue.
	gate, started := make(chan struct{}), make(chan struct{})
	blocker := &poolJob{done: make(chan struct{}), deadline: noDeadline,
		fn: func(*Synthesizer) error { close(started); <-gate; return nil }}
	if err := pool.q.push(blocker); err != nil {
		t.Fatal(err)
	}
	<-started

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
	sm, err := pool.NewSessionManager(SessionManagerConfig{
		ServiceSlots:    0.25,
		GlobalShipFloor: 0.5, // room for a shed every other packet
		Degrade:         DegradePolicy{MissesToDegrade: 1, MissesToShed: 2},
	})
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
	for i := 0; i < 16; i++ {
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
	t.Logf("%d policy sheds in 16 packets, each granted once", sheds)
}
