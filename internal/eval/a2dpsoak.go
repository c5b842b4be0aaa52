package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bluefi"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

// A2DP capacity-knee soak (DESIGN.md §14). A single pool serves N
// concurrent A2DP sessions; the soak answers "how many?" the same way
// the admission controller does, then checks the answer against
// reality:
//
//  1. Ramp — admit identical sessions one at a time until the
//     controller refuses. Every admission re-projects the whole fleet
//     through the EDF virtual-time replay (service time pinned by
//     config, so the knee is a property of the workload, not the
//     host), and the per-level projections are the capacity curve.
//  2. Measure — below the knee, drive every admitted session
//     round-robin on the clean pool and require each to actually ship
//     its packets with healthy deadline slack.
//  3. Storm — re-admit a fleet on a fault-injected pool with the
//     multi-session SLOs ticking once per round; the global shedding
//     budget must hold the fleet near the ship floor, and any page
//     must dump a flight bundle.
//
// `bluefi-eval -a2dp-soak` (and `make a2dp-soak`) runs this and gates
// CI with Check; the capacity curve lands in BENCH_eval.json under
// "a2dpCapacity".

// A2DPSoakConfig sizes the soak.
type A2DPSoakConfig struct {
	// Workers is the shared pool's worker count.
	Workers int
	// MaxSessions bounds the ramp; hitting it without a rejection is an
	// error (the knee must exist).
	MaxSessions int
	// PacketsPerSession is how many media packets each admitted session
	// sends during the measured phase and per storm fleet member.
	PacketsPerSession int
	// ServiceSlots pins the admission projection's per-segment service
	// estimate (625 µs slots), keeping the knee deterministic.
	ServiceSlots float64
	// GlobalShipFloor is the fleet-wide shedding floor.
	GlobalShipFloor float64
	// StormSessions is the fleet size for the fault-storm phase
	// (bounded by the knee).
	StormSessions int
	// StormRounds bounds the storm phase in round-robin rounds.
	StormRounds int
	// Seed seeds the storm's fault plan.
	Seed int64
	// FlightDir, when non-empty, receives the ramp's flight bundle (and
	// any SLO-page bundle from the storm).
	FlightDir string
	// ProjectionOnly skips the measured, flight and storm phases: only
	// the ramp projections run — the fully deterministic subset, used by
	// the determinism regression test.
	ProjectionOnly bool
	Mode           bluefi.Mode
}

// DefaultA2DPSoak is the CI configuration.
func DefaultA2DPSoak() A2DPSoakConfig {
	return A2DPSoakConfig{
		Workers:           2,
		MaxSessions:       32,
		PacketsPerSession: 3,
		ServiceSlots:      0.4,
		GlobalShipFloor:   0.8,
		StormSessions:     4,
		StormRounds:       40,
		Seed:              7,
		Mode:              bluefi.RealTime,
	}
}

// soakAudio is the per-session workload: four SBC frames per DM1
// packet (16 kHz mono, 4 blocks × 4 subbands, bitpool 31), i.e. seven
// L2CAP segments of 2 slots each every 6.4 slots of stream time. The
// generous SlotBudget keeps wall-clock deadlines out of the capacity
// arithmetic — the soak studies the projected slot schedule, not the
// host's scheduler.
func soakAudio(lap uint32) bluefi.AudioConfig {
	return bluefi.AudioConfig{
		Device:          bluefi.Device{LAP: lap, UAP: 0xA2},
		PacketType:      bluefi.DM1,
		SBC:             bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 31},
		FramesPerPacket: 4,
		SlotBudget:      time.Minute,
	}
}

// A2DPCapacityPoint is one admitted level of the capacity curve: the
// admission projection after the level-th session joined.
type A2DPCapacityPoint struct {
	Sessions      int     `json:"sessions"`
	Utilization   float64 `json:"utilization"`
	MissRatio     float64 `json:"missRatio"`
	P99SlackSlots float64 `json:"p99SlackSlots"`
	MinSlackSlots float64 `json:"minSlackSlots"`
}

// A2DPSessionOutcome is one session's measured-phase result.
type A2DPSessionOutcome struct {
	ID              string  `json:"id"`
	Shipped         uint64  `json:"shipped"`
	Dropped         uint64  `json:"dropped"`
	ShippedRatio    float64 `json:"shippedRatio"`
	Segments        uint64  `json:"segments"`
	DeadlineMisses  uint64  `json:"deadlineMisses"`
	P99SlackSeconds float64 `json:"p99SlackSeconds"`
}

// A2DPStormOutcome summarizes the fault-storm phase.
type A2DPStormOutcome struct {
	Sessions      int     `json:"sessions"`
	Rounds        int     `json:"rounds"`
	Injected      int64   `json:"injected"`
	ShippedRatio  float64 `json:"shippedRatio"`
	BudgetGrants  uint64  `json:"budgetGrants"`
	BudgetDenials uint64  `json:"budgetDenials"`
	// Pages counts a2dp SLO page episodes over the storm;
	// SessionsAtFloor is how many sessions still shipped at or above
	// the global floor when the first page fired (or at storm end when
	// no page fired).
	Pages           int    `json:"pages"`
	FirstPageRound  int    `json:"firstPageRound"`
	SessionsAtFloor int    `json:"sessionsAtFloor"`
	PageBundle      string `json:"pageBundle,omitempty"`
}

// A2DPSoakResult is the full soak outcome.
type A2DPSoakResult struct {
	Workers         int     `json:"workers"`
	ServiceSlots    float64 `json:"serviceSlots"`
	GlobalShipFloor float64 `json:"globalShipFloor"`
	// Knee is the admitted-session capacity: the ramp's last admitted
	// level. Rejected is the refused candidate's projection.
	Knee     int                  `json:"knee"`
	Ramp     []A2DPCapacityPoint  `json:"ramp"`
	Rejected A2DPCapacityPoint    `json:"rejected"`
	Measured []A2DPSessionOutcome `json:"measured"`
	// RampBundle is the flight bundle dumped after the ramp (admission
	// and rejection events); AdmitEvents/RejectEvents are its counts.
	RampBundle   string           `json:"rampBundle,omitempty"`
	AdmitEvents  int              `json:"admitEvents"`
	RejectEvents int              `json:"rejectEvents"`
	Storm        A2DPStormOutcome `json:"storm"`
}

// soakTone builds one Send's worth of PCM for a session's stream.
func soakTone(stream *bluefi.AudioStream, phase int) [][]float64 {
	pcm := make([][]float64, stream.Channels())
	for ch := range pcm {
		pcm[ch] = make([]float64, stream.SamplesPerSend())
		for i := range pcm[ch] {
			pcm[ch][i] = 8000 * math.Sin(2*math.Pi*440/16000*float64(phase+i))
		}
	}
	return pcm
}

// flightEventKinds counts event kinds in a dumped flight bundle.
func flightEventKinds(bundle string) (map[string]int, error) {
	data, err := os.ReadFile(filepath.Join(bundle, "events.json"))
	if err != nil {
		return nil, err
	}
	var events []flight.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, err
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	return kinds, nil
}

// A2DPSoak runs the capacity experiment.
func A2DPSoak(cfg A2DPSoakConfig) (*A2DPSoakResult, error) {
	res := &A2DPSoakResult{
		Workers:         cfg.Workers,
		ServiceSlots:    cfg.ServiceSlots,
		GlobalShipFloor: cfg.GlobalShipFloor,
	}

	// ---- Phase 1+2: ramp to the knee, then measure below it. ----
	reg := bluefi.NewTelemetry()
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	pool, err := bluefi.NewPool(bluefi.Options{Mode: cfg.Mode, Telemetry: reg}, cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(bluefi.SessionManagerConfig{
		GlobalShipFloor: cfg.GlobalShipFloor,
		ServiceSlots:    cfg.ServiceSlots,
	})
	if err != nil {
		return nil, err
	}

	var sessions []*bluefi.Session
	for i := 0; i < cfg.MaxSessions; i++ {
		s, err := sm.Admit(bluefi.SessionConfig{
			ID:    fmt.Sprintf("soak%02d", i),
			Audio: soakAudio(uint32(0xA20 + i)),
		})
		proj := sm.Report().LastProj
		point := A2DPCapacityPoint{
			Sessions:      proj.Sessions,
			Utilization:   proj.Utilization,
			MissRatio:     proj.MissRatio,
			P99SlackSlots: proj.P99SlackSlots,
			MinSlackSlots: proj.MinSlackSlots,
		}
		if err != nil {
			res.Rejected = point
			break
		}
		sessions = append(sessions, s)
		res.Ramp = append(res.Ramp, point)
	}
	res.Knee = len(sessions)
	if res.Knee == 0 {
		return nil, fmt.Errorf("a2dpsoak: first session refused (utilization %.2f, miss ratio %.4f)",
			res.Rejected.Utilization, res.Rejected.MissRatio)
	}
	if res.Rejected.Sessions == 0 {
		return nil, fmt.Errorf("a2dpsoak: no capacity knee within %d sessions — raise MaxSessions or the workload", cfg.MaxSessions)
	}

	if !cfg.ProjectionOnly {
		for p := 0; p < cfg.PacketsPerSession; p++ {
			for _, s := range sessions {
				if _, err := s.Send(soakTone(s.Stream(), p*64)); err != nil {
					return nil, fmt.Errorf("a2dpsoak: measured send %s/%d: %w", s.ID(), p, err)
				}
			}
		}
		for _, rep := range sm.Sessions() {
			res.Measured = append(res.Measured, A2DPSessionOutcome{
				ID:              rep.ID,
				Shipped:         rep.Shipped,
				Dropped:         rep.Dropped,
				ShippedRatio:    rep.ShippedRatio,
				Segments:        rep.Segments,
				DeadlineMisses:  rep.DeadlineMisses,
				P99SlackSeconds: rep.P99SlackSeconds,
			})
		}
	}

	if !cfg.ProjectionOnly && cfg.FlightDir != "" {
		bundle, err := rec.Dump(cfg.FlightDir, reg, "a2dp-soak-ramp")
		if err != nil {
			return nil, fmt.Errorf("a2dpsoak: ramp flight dump: %w", err)
		}
		res.RampBundle = bundle
		kinds, err := flightEventKinds(bundle)
		if err != nil {
			return nil, fmt.Errorf("a2dpsoak: ramp flight bundle: %w", err)
		}
		res.AdmitEvents = kinds["session.admit"]
		res.RejectEvents = kinds["session.reject"]
	}

	if cfg.ProjectionOnly {
		return res, nil
	}

	// ---- Phase 3: fault storm at the knee with the SLOs in the loop. ----
	storm, err := a2dpStorm(cfg, res.Knee)
	if err != nil {
		return nil, err
	}
	res.Storm = *storm
	return res, nil
}

// a2dpStorm runs the fault-injected multi-session phase: a fleet below
// the knee, round-robin sends with the multi-session SLO engine
// ticking once per round, the global shedding budget coordinating the
// governors, and a flight bundle on the first page.
func a2dpStorm(cfg A2DPSoakConfig, knee int) (*A2DPStormOutcome, error) {
	fleet := cfg.StormSessions
	if fleet > knee {
		fleet = knee
	}
	plan := bluefi.FaultPlan{
		Seed:             cfg.Seed,
		WorkerPanicRate:  0.02,
		LatencyRate:      0.4,
		LatencyFactor:    2,
		InterferenceRate: 0.4,
		InterferenceDuty: 0.3,
		MaxInjections:    120,
	}
	reg := bluefi.NewTelemetry()
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	pool, err := bluefi.NewPool(bluefi.Options{
		Mode:      cfg.Mode,
		Telemetry: reg,
		Faults:    &plan,
		Retry:     bluefi.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	}, cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	sm, err := pool.NewSessionManager(bluefi.SessionManagerConfig{
		GlobalShipFloor: cfg.GlobalShipFloor,
		ServiceSlots:    cfg.ServiceSlots,
	})
	if err != nil {
		return nil, err
	}

	out := &A2DPStormOutcome{Sessions: fleet, FirstPageRound: -1}
	var sessions []*bluefi.Session
	for i := 0; i < fleet; i++ {
		s, err := sm.Admit(bluefi.SessionConfig{
			ID:    fmt.Sprintf("storm%02d", i),
			Audio: soakAudio(uint32(0xB40 + i)),
		})
		if err != nil {
			return nil, fmt.Errorf("a2dpsoak: storm admit %d (below the knee %d): %w", i, knee, err)
		}
		sessions = append(sessions, s)
	}

	atFloor := func() int {
		n := 0
		for _, s := range sessions {
			if s.Report().ShippedRatio >= cfg.GlobalShipFloor {
				n++
			}
		}
		return n
	}
	eng := slo.NewEngine(reg)
	for _, spec := range sm.SessionSLOSpecs() {
		eng.Add(spec)
	}
	round := 0
	eng.OnPage(func(ep slo.Episode) {
		out.Pages++
		if out.FirstPageRound >= 0 {
			return
		}
		out.FirstPageRound = round
		out.SessionsAtFloor = atFloor()
		if cfg.FlightDir != "" {
			if bundle, err := rec.Dump(cfg.FlightDir, reg, "slo-page:"+ep.SLO); err == nil {
				out.PageBundle = bundle
			}
		}
	})

	for ; round < cfg.StormRounds; round++ {
		for _, s := range sessions {
			if _, err := s.Send(soakTone(s.Stream(), round*64)); err != nil {
				return nil, fmt.Errorf("a2dpsoak: storm send %s round %d: %w", s.ID(), round, err)
			}
		}
		eng.Tick(time.Unix(int64(round+1), 0).UTC())
		if pool.InjectedFaults() >= int64(plan.MaxInjections) && round >= cfg.StormRounds/2 {
			break
		}
	}
	out.Rounds = round
	out.Injected = pool.InjectedFaults()
	if out.FirstPageRound < 0 {
		out.SessionsAtFloor = atFloor()
	}
	var shipped, total uint64
	for _, s := range sessions {
		rep := s.Report()
		shipped += rep.Shipped
		total += rep.Shipped + rep.Dropped
	}
	if total > 0 {
		out.ShippedRatio = float64(shipped) / float64(total)
	}
	budget := sm.Report().Budget
	out.BudgetGrants = budget.Grants
	out.BudgetDenials = budget.Denials
	return out, nil
}

// a2dpMissBudget is the projected deadline-miss ratio an admitted level
// may carry; the refused candidate must project past it.
const a2dpMissBudget = 0.05

// a2dpStormShipFloor is the fleet-wide shipped ratio the fault storm
// must hold.
const a2dpStormShipFloor = 0.75

// Check applies the soak's pass/fail gates:
//
//   - the knee admits at least minKnee sessions;
//   - the capacity curve is monotone and every admitted level projects
//     a miss ratio inside the admission budget, while the refused
//     candidate projects one past it;
//   - every admitted session ships ≥ the global floor on the clean
//     pool, with zero deadline misses;
//   - the ramp's flight bundle carries the admit/reject trail;
//   - through the storm, at least min(minKnee, storm sessions) sessions
//     still ship at or above the floor when the first SLO page fires
//     (or at storm end when none does), and the fleet ships ≥ 0.75.
func (r *A2DPSoakResult) Check(minKnee int) error {
	if r.Knee < minKnee {
		return fmt.Errorf("capacity knee at %d sessions, want ≥ %d", r.Knee, minKnee)
	}
	for i, pt := range r.Ramp {
		if i > 0 && pt.Utilization <= r.Ramp[i-1].Utilization {
			return fmt.Errorf("capacity curve not monotone at level %d (%.4f after %.4f)",
				pt.Sessions, pt.Utilization, r.Ramp[i-1].Utilization)
		}
		if pt.MissRatio > a2dpMissBudget {
			return fmt.Errorf("admitted level %d projects miss ratio %.4f over the %.2f budget",
				pt.Sessions, pt.MissRatio, a2dpMissBudget)
		}
	}
	if r.Rejected.Sessions != r.Knee+1 || r.Rejected.MissRatio <= a2dpMissBudget {
		return fmt.Errorf("refused candidate's projection %+v does not justify rejection", r.Rejected)
	}
	for _, m := range r.Measured {
		if m.ShippedRatio < r.GlobalShipFloor {
			return fmt.Errorf("session %s shipped %.3f below the %.2f floor on the clean pool",
				m.ID, m.ShippedRatio, r.GlobalShipFloor)
		}
		if m.DeadlineMisses > 0 {
			return fmt.Errorf("session %s missed %d deadlines below the knee", m.ID, m.DeadlineMisses)
		}
	}
	if r.RampBundle == "" || r.AdmitEvents != r.Knee || r.RejectEvents < 1 {
		return fmt.Errorf("ramp flight bundle %q carries %d admit / %d reject events, want %d / ≥1",
			r.RampBundle, r.AdmitEvents, r.RejectEvents, r.Knee)
	}
	st := r.Storm
	atFloor := min(minKnee, st.Sessions)
	if st.SessionsAtFloor < atFloor {
		return fmt.Errorf("only %d/%d storm sessions at the %.2f floor (first page round %d), want ≥ %d",
			st.SessionsAtFloor, st.Sessions, r.GlobalShipFloor, st.FirstPageRound, atFloor)
	}
	if st.ShippedRatio < a2dpStormShipFloor {
		return fmt.Errorf("storm fleet shipped %.3f, want ≥ %.2f", st.ShippedRatio, a2dpStormShipFloor)
	}
	return nil
}

// FormatA2DPSoak renders the capacity curve and gate figures.
func FormatA2DPSoak(r *A2DPSoakResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "A2DP soak — %d workers, %.2f service slots/segment, ship floor %.0f%%\n",
		r.Workers, r.ServiceSlots, r.GlobalShipFloor*100)
	fmt.Fprintf(&sb, "%9s  %12s  %10s  %10s  %10s\n", "sessions", "utilization", "miss ratio", "p99 slack", "min slack")
	for _, pt := range r.Ramp {
		fmt.Fprintf(&sb, "%9d  %12.3f  %10.4f  %9.1fs  %9.1fs\n",
			pt.Sessions, pt.Utilization, pt.MissRatio, pt.P99SlackSlots, pt.MinSlackSlots)
	}
	fmt.Fprintf(&sb, "knee: %d sessions admitted; session %d refused at utilization %.3f, projected miss ratio %.4f\n",
		r.Knee, r.Rejected.Sessions, r.Rejected.Utilization, r.Rejected.MissRatio)
	var shipped, total uint64
	for _, m := range r.Measured {
		shipped += m.Shipped
		total += m.Shipped + m.Dropped
	}
	fmt.Fprintf(&sb, "measured below the knee: %d/%d packets shipped across %d sessions\n",
		shipped, total, len(r.Measured))
	st := r.Storm
	fmt.Fprintf(&sb, "storm: %d sessions × %d rounds, %d faults injected, %.1f%% shipped; budget %d grants / %d denials\n",
		st.Sessions, st.Rounds, st.Injected, st.ShippedRatio*100, st.BudgetGrants, st.BudgetDenials)
	if st.Pages > 0 {
		fmt.Fprintf(&sb, "storm SLO: %d page(s), first at round %d with %d/%d sessions at the floor\n",
			st.Pages, st.FirstPageRound, st.SessionsAtFloor, st.Sessions)
	} else {
		fmt.Fprintf(&sb, "storm SLO: no pages; %d/%d sessions at the floor at storm end\n",
			st.SessionsAtFloor, st.Sessions)
	}
	if r.RampBundle != "" {
		fmt.Fprintf(&sb, "flight bundle %s: %d admit, %d reject events\n", r.RampBundle, r.AdmitEvents, r.RejectEvents)
	}
	return sb.String()
}
