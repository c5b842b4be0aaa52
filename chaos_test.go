package bluefi

// Chaos suite: the fault-tolerance acceptance tests. Everything here
// runs with deterministic fault injection (internal/faults) against the
// hardened pool and the degradation-aware audio path, and is wired into
// `make chaos` (go test -race -run TestChaos). The invariants under
// test: injected faults never panic out of the library, the pool keeps
// its capacity through crashes, the stream keeps shipping ≥80% of
// frames through a fault storm, health recovers once faults stop, and
// no goroutines leak.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bluefi/internal/leaktest"
	"bluefi/internal/obs/flight"
)

// chaosTone builds one Send's worth of PCM for the stream.
func chaosTone(stream *AudioStream, phase int) [][]float64 {
	pcm := make([][]float64, stream.Channels())
	for ch := range pcm {
		pcm[ch] = make([]float64, stream.SamplesPerSend())
		for i := range pcm[ch] {
			pcm[ch][i] = 8000 * math.Sin(2*math.Pi*440/16000*float64(phase+i))
		}
	}
	return pcm
}

// TestChaosQueuePolicies exercises the bounded queue's backpressure on
// a full queue and its closed-state semantics in isolation.
func TestChaosQueuePolicies(t *testing.T) {
	mkJob := func() *poolJob { return &poolJob{done: make(chan struct{})} }

	t.Run("Block", func(t *testing.T) {
		q := newJobQueue(1, nil)
		if err := q.push(mkJob()); err != nil {
			t.Fatal(err)
		}
		unblocked := make(chan error, 1)
		go func() { unblocked <- q.push(mkJob()) }()
		select {
		case err := <-unblocked:
			t.Fatalf("push on a full Block queue returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		q.pop() // make room
		if err := <-unblocked; err != nil {
			t.Fatalf("unblocked push failed: %v", err)
		}
	})

	t.Run("Closed", func(t *testing.T) {
		q := newJobQueue(2, nil)
		queued := mkJob()
		if err := q.push(queued); err != nil {
			t.Fatal(err)
		}
		q.close()
		if err := q.push(mkJob()); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("push after close: %v, want ErrPoolClosed", err)
		}
		// Queued work drains before workers see the closed marker.
		if got := q.pop(); got != queued {
			t.Fatal("close dropped a queued job")
		}
		if got := q.pop(); got != nil {
			t.Fatalf("pop on closed+empty queue returned %v, want nil", got)
		}
		if n := q.failPending(ErrPoolClosed); n != 0 {
			t.Fatalf("failPending on an empty queue dropped %d", n)
		}
	})
}

// TestChaosBatchAfterClose: the seed's panic-on-send is gone — every
// submission path on a closed pool fails with the typed ErrPoolClosed.
func TestChaosBatchAfterClose(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	jobs := []BatchJob{{Beacon: &BeaconJob{ADStructures: []byte{2, 0x01, 0x06}}}}
	for i, res := range pool.SynthesizeBatch(jobs) {
		if !errors.Is(res.Err, ErrPoolClosed) {
			t.Fatalf("SynthesizeBatch[%d] after Close: %v, want ErrPoolClosed", i, res.Err)
		}
	}
	for i, res := range pool.BeaconBatch([]BeaconJob{{ADStructures: []byte{2, 0x01, 0x06}}}) {
		if !errors.Is(res.Err, ErrPoolClosed) {
			t.Fatalf("BeaconBatch[%d] after Close: %v, want ErrPoolClosed", i, res.Err)
		}
	}
	if _, err := pool.NewAudioStream(AudioConfig{Device: Device{LAP: 1}}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("NewAudioStream after Close: %v, want ErrPoolClosed", err)
	}
}

// TestChaosDoubleCloseIdempotent: regression for the double-Close
// panic — Close and Shutdown may be called any number of times, from
// any goroutine, and every call returns once the drain completes.
func TestChaosDoubleCloseIdempotent(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // used to panic "bluefi: Pool closed twice"
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after Close: %v", err)
	}

	// Concurrent closers all return, none panic.
	pool2, err := NewPool(Options{Mode: RealTime}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool2.Close()
		}()
	}
	wg.Wait()
	res := pool2.BeaconBatch([]BeaconJob{{Addr: [6]byte{0xBF}, BLEChannel: 38}})
	if len(res) != 1 || !errors.Is(res[0].Err, ErrPoolClosed) {
		t.Fatalf("submit after close: %+v, want ErrPoolClosed", res)
	}
}

// TestChaosShutdownDeadline: Shutdown under a deadline fails queued
// jobs with ErrPoolClosed, returns the context error, and still joins
// every worker (the in-flight job cannot be interrupted).
func TestChaosShutdownDeadline(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime}, 1)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var once atomic.Bool
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			results <- pool.tryOne(noDeadline, func(*Synthesizer) error {
				if once.CompareAndSwap(false, true) {
					close(started)
				}
				<-release
				return nil
			})
		}()
	}
	<-started // one job holds the worker; the rest sit in the queue
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- pool.Shutdown(ctx) }()
	time.Sleep(60 * time.Millisecond) // let the deadline fire and pending jobs fail
	close(release)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	var closed, finished int
	for i := 0; i < 4; i++ {
		switch err := <-results; {
		case err == nil:
			finished++
		case errors.Is(err, ErrPoolClosed):
			closed++
		default:
			t.Fatalf("unexpected job error %v", err)
		}
	}
	// The held job (and any the worker popped before the deadline)
	// finish; the rest were failed by the deadline.
	if finished < 1 || closed < 1 || finished+closed != 4 {
		t.Fatalf("finished=%d closed=%d, want ≥1 of each summing to 4", finished, closed)
	}
}

// TestChaosJobTimeoutAndRetry: a first attempt stuck past JobTimeout is
// abandoned and the retry succeeds; without retry budget the timeout
// surfaces as ErrJobTimeout.
func TestChaosJobTimeoutAndRetry(t *testing.T) {
	// Two workers: the abandoned first attempt keeps one busy while the
	// retry lands on the other.
	pool, err := NewPool(Options{
		Mode:       RealTime,
		JobTimeout: 40 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var attempts atomic.Int32
	v, err := poolDo(pool, func(*Synthesizer) (int, error) {
		if attempts.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // blow the deadline once
		}
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("poolDo = (%d, %v), want (7, nil)", v, err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("%d attempts, want 2 (timeout then success)", got)
	}

	// No retry budget: the timeout is the caller's error.
	_, err = poolDo(pool, func(*Synthesizer) (int, error) {
		time.Sleep(300 * time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("unretried slow job: %v, want ErrJobTimeout", err)
	}
}

// TestChaosWorkerPanicRespawn: a panicking job fails with *PanicError
// carrying the panic value, the worker respawns, and the pool retains
// full capacity — repeated crashes never wedge Close.
func TestChaosWorkerPanicRespawn(t *testing.T) {
	noLeak := leaktest.Check(t)
	pool, err := NewPool(Options{Mode: RealTime}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := poolDo(pool, func(*Synthesizer) (int, error) {
			panic("chaos")
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "chaos" {
			t.Fatalf("crash %d: %v, want *PanicError{chaos}", i, err)
		}
	}
	// Capacity survives: real work still runs on both workers. (BLE
	// channel 38 is the advertising channel WiFi channel 3 covers.)
	res := pool.BeaconBatch([]BeaconJob{
		{ADStructures: []byte{2, 0x01, 0x06}, BLEChannel: 38},
		{ADStructures: []byte{2, 0x01, 0x06}, BLEChannel: 38},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("post-crash job %d failed: %v", i, r.Err)
		}
	}
	if pool.Workers() != 2 {
		t.Fatalf("worker count %d after respawns, want 2", pool.Workers())
	}
	pool.Close()
	noLeak()
}

// TestChaosInjectedSynthErrorsRetried: seed-driven synthesis errors are
// transient by contract — the retry policy absorbs them, and whatever
// still fails is tagged as injected, never a silent wrong result.
func TestChaosInjectedSynthErrorsRetried(t *testing.T) {
	pool, err := NewPool(Options{
		Mode:   RealTime,
		Faults: &FaultPlan{Seed: 11, SynthErrorRate: 0.5, MaxInjections: 6},
		Retry:  RetryPolicy{MaxAttempts: 8},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := make([]BeaconJob, 30)
	for i := range jobs {
		jobs[i] = BeaconJob{ADStructures: []byte{2, 0x01, 0x06}, BLEChannel: 38}
	}
	ok := 0
	for i, res := range pool.BeaconBatch(jobs) {
		switch {
		case res.Err == nil:
			ok++
		case errors.Is(res.Err, ErrInjectedFault):
			// budget-exhausting bad luck: tagged, not mysterious
		default:
			t.Fatalf("job %d: non-injected error %v", i, res.Err)
		}
	}
	if ok < len(jobs)-2 {
		t.Fatalf("only %d/%d jobs survived the retry policy", ok, len(jobs))
	}
}

// TestChaosAcceptance is the ISSUE acceptance scenario: a seeded storm
// of worker panics, 2× latency inflation and 30%-duty interference
// against a degradation-enabled stream. The stream must ship ≥80% of
// frames, never let a panic out of the library, recover to Healthy
// within a bounded number of sends after the fault budget is spent, and
// leak zero goroutines.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	noLeak := leaktest.Check(t)
	reg := NewTelemetry()
	pool, err := NewPool(Options{
		Mode:      RealTime,
		Telemetry: reg,
		Faults: &FaultPlan{
			Seed:             1,
			WorkerPanicRate:  0.05,
			LatencyRate:      0.40,
			LatencyFactor:    2,
			InterferenceRate: 0.40,
			InterferenceDuty: 0.30,
			MaxInjections:    40,
		},
		Retry: RetryPolicy{MaxAttempts: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A cheap mono DM1 stream keeps the suite fast; the SlotBudget is far
	// above any real synthesis time, so every deadline miss the governor
	// sees comes from the injector's latency penalty — machine-independent.
	stream, err := pool.NewAudioStream(AudioConfig{
		Device:     Device{LAP: 0x123456, UAP: 0x9A},
		PacketType: DM1,
		SBC:        SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		Degrade:    true,
		SlotBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	phase, sends := 0, 0
	send := func() { // a panic escaping here fails the test — that IS the assertion
		t.Helper()
		if _, err := stream.Send(chaosTone(stream, phase)); err != nil {
			t.Fatalf("send %d: non-transient error escaped the degradation layer: %v", sends, err)
		}
		phase += stream.SamplesPerSend()
		sends++
	}
	for sends < 400 && !pool.inj.Exhausted() {
		send()
	}
	if !pool.inj.Exhausted() {
		t.Fatalf("fault budget not spent after %d sends (%d injected)", sends, pool.inj.Injected())
	}

	// Faults are off now. Recovery must complete within a bounded number
	// of clean sends: two hysteresis ladders of eight clean observations.
	recovered := false
	for i := 0; i < 40; i++ {
		send()
		if stream.Health() == HealthHealthy {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("stream stuck at %v after the storm (report %+v)", stream.Health(), stream.Report())
	}

	rep := stream.Report()
	total := rep.Shipped + rep.Dropped
	if total == 0 {
		t.Fatal("no frames accounted")
	}
	if frac := float64(rep.Shipped) / float64(total); frac < 0.80 {
		t.Fatalf("shipped %d/%d = %.3f of frames, acceptance floor is 0.80 (report %+v)",
			rep.Shipped, total, frac, rep)
	}
	if rep.Transitions == 0 {
		t.Fatal("the storm never moved the health state — injection is inert")
	}

	pool.Close()
	noLeak()
}

// TestChaosDisabledFaultsAreFree: a nil plan and a zero plan both yield
// a nil injector on the public surface — the fault layer costs nothing
// when off, and the synthesis output is byte-identical to the seed path
// (the golden-vector suite holds that line; here we pin the wiring).
func TestChaosDisabledFaultsAreFree(t *testing.T) {
	pool, err := NewPool(Options{Mode: RealTime, Faults: &FaultPlan{Seed: 99}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.inj != nil {
		t.Fatal("zero-rate plan built a live injector")
	}
	syn, err := New(Options{Mode: RealTime})
	if err != nil {
		t.Fatal(err)
	}
	if syn.inj != nil {
		t.Fatal("nil plan built a live injector")
	}
}

// TestChaosMultiSessionStorm is the multi-session acceptance storm
// (DESIGN.md §14): a fleet of sessions over one pool, rapid add/remove
// while a seeded fault storm is running, the shared ship-floor ledger
// holding the fleet floor, no session starved of shipped packets, the
// flight recorder capturing the admission/eviction/budget events, and
// no goroutines leaked. Runs under `make chaos` (-race).
func TestChaosMultiSessionStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	noLeak := leaktest.Check(t)
	reg := NewTelemetry()
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	pool, err := NewPool(Options{
		Mode:      RealTime,
		Telemetry: reg,
		Faults: &FaultPlan{
			Seed:             2,
			WorkerPanicRate:  0.02,
			LatencyRate:      0.40,
			LatencyFactor:    2,
			InterferenceRate: 0.40,
			InterferenceDuty: 0.30,
			// Long enough for sessions to reach Shedding under the
			// shipped thresholds and keep asking once the shared
			// ledger's floor binds.
			MaxInjections: 240,
		},
		Retry: RetryPolicy{MaxAttempts: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := pool.NewSessionManager(SessionManagerConfig{ServiceSlots: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	// One SBC frame per DM1 packet — 3 segments every 1.6 slots: the
	// cheapest synthesis unit, so the storm's wall-clock cost stays
	// inside the chaos tier's budget even under -race.
	stormAudio := func(lap uint32) AudioConfig {
		return AudioConfig{
			Device:     Device{LAP: lap, UAP: 0x9A},
			PacketType: DM1,
			SBC:        SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
			SlotBudget: time.Minute,
		}
	}

	// Ramp to the knee and back: admissions past capacity must be
	// refused (the recorder sees session.reject), then rapid eviction
	// brings the fleet to its storm size.
	var ramp []string
	sawReject := false
	for i := 0; i < 64 && !sawReject; i++ {
		id := fmt.Sprintf("ramp%d", i)
		_, err := sm.Admit(SessionConfig{ID: id, Audio: stormAudio(uint32(0x200 + i))})
		switch {
		case err == nil:
			ramp = append(ramp, id)
		case errors.Is(err, ErrAdmissionRejected):
			sawReject = true
		default:
			t.Fatalf("ramp admit %s: %v", id, err)
		}
	}
	if !sawReject {
		t.Fatal("the ramp never hit the admission knee")
	}
	const fleet = 4
	if len(ramp) < fleet+2 {
		t.Fatalf("knee at %d sessions, need at least %d for the storm", len(ramp), fleet+2)
	}
	for _, id := range ramp {
		if !sm.Evict(id) {
			t.Fatalf("ramp eviction of %s failed", id)
		}
	}

	type member struct {
		id string
		s  *Session
	}
	var live []member
	for i := 0; i < fleet; i++ {
		id := fmt.Sprintf("storm%d", i)
		s, err := sm.Admit(SessionConfig{ID: id, Audio: stormAudio(uint32(0x300 + i))})
		if err != nil {
			t.Fatalf("storm admit %s: %v", id, err)
		}
		live = append(live, member{id: id, s: s})
	}

	// All session handles ever live, for fleet-wide accounting.
	all := append([]member(nil), live...)

	// The storm: round-robin sends with churn — two mid-storm
	// evict+admit cycles — until the fault budget is spent.
	phase, round, churns := 0, 0, 0
	for round < 80 && (!pool.inj.Exhausted() || churns < 2) {
		for _, m := range live {
			if _, err := m.s.Send(chaosTone(m.s.Stream(), phase)); err != nil {
				t.Fatalf("round %d session %s: non-transient error escaped: %v", round, m.id, err)
			}
		}
		phase += live[0].s.Stream().SamplesPerSend()
		round++
		if round%5 == 0 && churns < 2 {
			churns++
			victim := live[0]
			if !sm.Evict(victim.id) {
				t.Fatalf("churn eviction of %s failed", victim.id)
			}
			id := fmt.Sprintf("churn%d", churns)
			s, err := sm.Admit(SessionConfig{ID: id, Audio: stormAudio(uint32(0x400 + churns))})
			if err != nil {
				t.Fatalf("churn session %s not admitted after an eviction: %v", id, err)
			}
			live = append(live[1:], member{id: id, s: s})
			all = append(all, member{id: id, s: s})
		}
	}
	if !pool.inj.Exhausted() {
		t.Fatalf("fault budget not spent after %d rounds", round)
	}
	if churns != 2 {
		t.Fatalf("%d churn cycles ran, want 2", churns)
	}

	// Fleet accounting across every session that ever lived: the shared
	// ledger must have held the floor (it only counts packets sent while
	// a session was live, so allow a small margin on the handle sum).
	var shipped, dropped uint64
	for _, m := range all {
		rep := m.s.Report()
		shipped += rep.Shipped
		dropped += rep.Dropped
		if rep.Shipped == 0 {
			t.Errorf("session %s starved: zero shipped packets through the storm", m.id)
		}
	}
	if total := shipped + dropped; float64(shipped) < 0.75*float64(total) {
		t.Fatalf("fleet shipped %d/%d (%.3f), the global floor did not hold", shipped, total, float64(shipped)/float64(total))
	}
	brep := sm.Report().Budget
	if bt := brep.TotalShipped + brep.TotalDropped; bt > 0 {
		if r := float64(brep.TotalShipped) / float64(bt); r < 0.8 {
			t.Fatalf("budget report shipped ratio %.3f below the 0.8 floor", r)
		}
	}
	// The flight bundle must carry the session lifecycle events.
	dir := t.TempDir()
	bundle, err := rec.Dump(dir, reg, "a2dp-chaos")
	if err != nil {
		t.Fatal(err)
	}
	var evs []flight.Event
	if err := json.Unmarshal(readFileT(t, filepath.Join(bundle, "events.json")), &evs); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"session.admit", "session.reject", "session.evict"} {
		if kinds[want] == 0 {
			t.Errorf("bundle events missing %s (kinds %v)", want, kinds)
		}
	}
	if kinds["session.budget_exhausted"] == 0 {
		t.Errorf("storm never exhausted the global budget (kinds %v)", kinds)
	}
	if kinds["session.evict"] < 2+len(ramp) {
		t.Errorf("%d evict events for %d evictions", kinds["session.evict"], 2+len(ramp))
	}

	pool.Close()
	noLeak()
}
