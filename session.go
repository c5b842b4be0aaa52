package bluefi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bluefi/internal/a2dp"
	"bluefi/internal/obs"
	"bluefi/internal/obs/slo"
)

// Multi-session A2DP (DESIGN.md §14): the SessionManager multiplexes N
// concurrent audio streams over one shared Pool. Three mechanisms keep
// the fleet inside its real-time envelope where N isolated streams
// would collapse:
//
//   - Admission control: before a session joins, its steady-state
//     segment arrivals — together with every live session's and the
//     pool's current backlog — are replayed through the deterministic
//     EDF slot-time simulator (internal/a2dp), with the per-segment
//     service time estimated from the pool's measured job-latency
//     histogram. Projected deadline-miss ratio over the 0.05 budget ⇒
//     ErrAdmissionRejected. A refused session may retry once an
//     Evict frees headroom.
//   - A shared ship-floor ledger: each session's Governor asks one
//     fleet-wide ledger before every Shedding drop, so the 0.8 ship
//     floor holds for the fleet and a struggling session can borrow the
//     headroom healthy ones leave.
//   - EDF job scheduling: the pool runs whichever session's segment is
//     closest to its 625 µs slot, not whichever was submitted first.
//
// Every session runs the shipped degradation policy (DESIGN.md §9). The
// manager is goroutine-free: admission and eviction run on the caller,
// so it adds nothing for the leak checker to track.

// ErrAdmissionRejected is returned by SessionManager.Admit (and wraps
// the detail of why) when the projected deadline-miss ratio of the
// fleet plus the candidate exceeds a2dp.AdmissionMissBudget.
var ErrAdmissionRejected = errors.New("bluefi: session admission rejected")

// SessionManagerConfig tunes the multi-session coordination plane. The
// zero value is usable.
type SessionManagerConfig struct {
	// ServiceSlots overrides the per-segment service-time estimate in
	// 625 µs slots (0 = live estimate from the pool's job-latency
	// histogram, falling back to 1 slot before the first job). Evals pin
	// it so the capacity knee is a property of the workload, not the
	// host.
	ServiceSlots float64
}

// SessionConfig describes one candidate A2DP session.
type SessionConfig struct {
	// ID names the session; unique among live sessions.
	ID string
	// Audio is the stream configuration. Its Degrade field is ignored:
	// every managed stream degrades, asking the fleet ledger.
	Audio AudioConfig
}

// smMetrics holds the manager's telemetry handles; nil disables them at
// one branch per record. audio is the streams' shared deadline family,
// which the deadline SLO reads.
type smMetrics struct {
	reg *obs.Registry

	admitted *obs.Counter
	rejected *obs.Counter
	evicted  *obs.Counter
	missGate *obs.Gauge
	active   *obs.Gauge
	audio    *audioMetrics
}

func newSMMetrics(r *obs.Registry) *smMetrics {
	if r == nil {
		return nil
	}
	return &smMetrics{
		reg: r,
		admitted: r.Counter("bluefi_a2dp_admission_admitted_total",
			"sessions admitted by the headroom projection"),
		rejected: r.Counter("bluefi_a2dp_admission_rejected_total",
			"session admissions refused (projected deadline-miss ratio over budget)"),
		evicted: r.Counter("bluefi_a2dp_admission_evicted_total",
			"sessions evicted from the manager"),
		missGate: r.Gauge("bluefi_a2dp_admission_miss_permille",
			"projected deadline-miss ratio of the last admission decision, in permille"),
		active: r.Gauge("bluefi_a2dp_session_active",
			"live sessions multiplexed over the shared pool"),
		audio: newAudioMetrics(r),
	}
}

func (m *smMetrics) event(kind string, attrs ...obs.Label) {
	if m == nil {
		return
	}
	m.reg.Event(kind, attrs...)
}

// SessionManager multiplexes A2DP sessions over one shared Pool. Safe
// for concurrent use. Build one with Pool.NewSessionManager.
type SessionManager struct {
	pool   *Pool
	cfg    SessionManagerConfig
	ledger *a2dp.ShedBudget
	met    *smMetrics

	mu       sync.Mutex
	sessions map[string]*Session // guarded by mu
	order    []string            // guarded by mu; admission order
	seq      uint64              // guarded by mu; admissions ever, for phase stagger
	lastProj a2dp.Projection     // guarded by mu
}

// NewSessionManager builds a session coordination plane over the pool.
// The manager shares the pool's telemetry registry.
func (p *Pool) NewSessionManager(cfg SessionManagerConfig) (*SessionManager, error) {
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	reg := p.opts.Telemetry
	return &SessionManager{
		pool:     p,
		cfg:      cfg,
		ledger:   a2dp.NewShedBudget(a2dp.ShedBudgetConfig{Telemetry: reg}),
		met:      newSMMetrics(reg),
		sessions: make(map[string]*Session),
	}, nil
}

// demandFor derives the session's steady-state slot-time load from the
// same resolved shape the stream is built from, so the projection prices
// exactly the stream that would be built.
func demandFor(cfg SessionConfig, phaseSeq uint64) (a2dp.SessionDemand, error) {
	pt, sbcCfg, frames, segSlots, err := cfg.Audio.shape()
	if err != nil {
		return a2dp.SessionDemand{}, err
	}
	// One Send's wire bytes: L2CAP header + AVDTP media header + frames.
	wire := 4 + a2dp.MediaHeaderLen + frames*sbcCfg.FrameBytes()
	segs := (wire + pt.MaxPayload() - 1) / pt.MaxPayload()
	samples := frames * sbcCfg.SamplesPerFrame()
	periodSlots := float64(samples) / float64(sbcCfg.Freq.Hz()) / 625e-6
	return a2dp.SessionDemand{
		ID:                cfg.ID,
		SegmentsPerPacket: segs,
		SegmentSlots:      segSlots,
		PacketPeriodSlots: periodSlots,
		// Stagger arrival phases so same-config sessions do not all
		// burst on slot 0 of the projection.
		PhaseSlots: periodSlots * float64(phaseSeq%4) / 4,
	}, nil
}

// serviceSlotsLocked is the admission projection's per-segment service
// estimate: the configured override, else the pool's measured mean job
// latency in slots, else 1.
func (m *SessionManager) serviceSlotsLocked() float64 {
	if m.cfg.ServiceSlots > 0 {
		return m.cfg.ServiceSlots
	}
	if mean, n := m.pool.JobLatency(); n > 0 {
		return mean / 625e-6
	}
	return 1
}

// Admit projects pool headroom for the live fleet plus the candidate
// and either opens the session's stream or refuses with an error
// wrapping ErrAdmissionRejected.
func (m *SessionManager) Admit(cfg SessionConfig) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cfg.ID == "" {
		return nil, fmt.Errorf("bluefi: session ID must be non-empty")
	}
	if _, ok := m.sessions[cfg.ID]; ok {
		return nil, fmt.Errorf("bluefi: session %q already admitted", cfg.ID)
	}
	demand, err := demandFor(cfg, m.seq)
	if err != nil {
		return nil, err
	}
	demands := make([]a2dp.SessionDemand, 0, len(m.order)+1)
	for _, id := range m.order {
		demands = append(demands, m.sessions[id].demand)
	}
	demands = append(demands, demand)
	proj := a2dp.ProjectAdmission(demands, a2dp.AdmissionConfig{
		Workers:      m.pool.Workers(),
		QueueDepth:   m.pool.QueueDepth(),
		ServiceSlots: m.serviceSlotsLocked(),
	})
	m.lastProj = proj
	if m.met != nil {
		m.met.missGate.Set(int64(proj.MissRatio * 1000))
	}
	if proj.MissRatio > a2dp.AdmissionMissBudget {
		if m.met != nil {
			m.met.rejected.Inc()
		}
		m.met.event("session.reject",
			obs.L("session", cfg.ID),
			obs.L("sessions", fmt.Sprintf("%d", proj.Sessions)),
			obs.L("missRatio", fmt.Sprintf("%.4f", proj.MissRatio)))
		return nil, fmt.Errorf("%w: %q: projected deadline-miss ratio %.4f exceeds budget %.4f at %d sessions (utilization %.2f)",
			ErrAdmissionRejected, cfg.ID, proj.MissRatio, a2dp.AdmissionMissBudget, proj.Sessions, proj.Utilization)
	}

	// Couple the stream's governor to the fleet ledger.
	ac := cfg.Audio
	ac.Degrade = true
	if err := m.ledger.Register(cfg.ID); err != nil {
		return nil, err
	}
	stream, err := m.pool.newAudioStream(ac, a2dp.PolicyConfig{
		Coordinator: m.ledger,
		SessionID:   cfg.ID,
		Telemetry:   m.pool.opts.Telemetry,
	})
	if err != nil {
		m.ledger.Unregister(cfg.ID)
		return nil, err
	}
	s := &Session{id: cfg.ID, stream: stream, demand: demand}
	m.sessions[cfg.ID] = s
	m.order = append(m.order, cfg.ID)
	m.seq++
	if m.met != nil {
		m.met.admitted.Inc()
		m.met.active.Set(int64(len(m.sessions)))
	}
	m.met.event("session.admit",
		obs.L("session", cfg.ID),
		obs.L("sessions", fmt.Sprintf("%d", len(m.sessions))))
	return s, nil
}

// Evict removes a live session and returns whether it was present. The
// evicted Session's stream stays usable but leaves the ledger's live
// set: it never sheds again.
func (m *SessionManager) Evict(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return false
	}
	delete(m.sessions, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.ledger.Unregister(id)
	s.evicted.Store(true)
	if m.met != nil {
		m.met.evicted.Inc()
		m.met.active.Set(int64(len(m.sessions)))
	}
	m.met.event("session.evict",
		obs.L("session", id),
		obs.L("sessions", fmt.Sprintf("%d", len(m.sessions))))
	return true
}

// Sessions returns a report per live session, in admission order.
func (m *SessionManager) Sessions() []SessionReport {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		ss = append(ss, m.sessions[id])
	}
	m.mu.Unlock()
	out := make([]SessionReport, len(ss))
	for i, s := range ss {
		out[i] = s.Report()
	}
	return out
}

// SessionManagerReport is the manager's point-in-time summary.
type SessionManagerReport struct {
	Sessions []SessionReport       `json:"sessions"`
	LastProj a2dp.Projection       `json:"lastProjection"`
	Budget   a2dp.ShedBudgetReport `json:"budget"`
}

// Report returns the manager summary: per-session reports, the last
// admission projection and the fleet ledger state.
func (m *SessionManager) Report() SessionManagerReport {
	m.mu.Lock()
	proj := m.lastProj
	m.mu.Unlock()
	return SessionManagerReport{
		Sessions: m.Sessions(),
		LastProj: proj,
		Budget:   m.ledger.Report(),
	}
}

// SessionSLOSpecs declares the multi-session SLOs — feed them to an
// slo.Engine the way the fleet layer's SLOSpecs are. Delivery reads the
// fleet ledger's totals, the ones the ship floor is enforced on;
// deadlines read the registry's audio family, which every stream on the
// pool's registry feeds. Returns nil without telemetry.
func (m *SessionManager) SessionSLOSpecs() []slo.Spec {
	if m.met == nil {
		return nil
	}
	return []slo.Spec{
		{
			Name:        "a2dp_session_delivery",
			Description: "Fleet-wide shipped media-packet fraction stays above the global ship floor.",
			Objective:   a2dp.ShipFloor,
			Indicator: func() (float64, float64) {
				b := m.ledger.Report()
				return float64(b.TotalShipped), float64(b.TotalShipped + b.TotalDropped)
			},
		},
		{
			Name:        "a2dp_session_deadline",
			Description: "95% of synthesized segments make their slot budget.",
			Objective:   0.95,
			Indicator: func() (float64, float64) {
				total := m.met.audio.slack.Count()
				return float64(total - m.met.audio.late.Value()), float64(total)
			},
		},
	}
}

// Session is one admitted A2DP stream under the manager. Safe for
// concurrent use with the other sessions; one session's Send calls are
// serial like AudioStream's. It keeps no counts of its own: its report
// reads the stream's governor and deadline record.
type Session struct {
	id      string
	stream  *AudioStream
	demand  a2dp.SessionDemand
	evicted atomic.Bool
}

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// Stream exposes the underlying audio stream (codec geometry, health).
func (s *Session) Stream() *AudioStream { return s.stream }

// Send encodes and synthesizes one media packet (see AudioStream.Send);
// a (nil, nil) return is a shed or fault-dropped packet.
func (s *Session) Send(pcm [][]float64) ([]*AudioTransmission, error) {
	return s.stream.Send(pcm)
}

// SessionReport is one session's point-in-time summary. The embedded
// DegradationReport is the stream's governor summary: State, and
// Shipped/Dropped counted in media packets. The governor charges a
// granted shed when the ledger grants it, so Dropped may run one packet
// ahead of the (nil, nil) Send that carries the shed.
type SessionReport struct {
	ID      string `json:"id"`
	Evicted bool   `json:"evicted,omitempty"`
	DegradationReport
	// ShippedRatio is Shipped/(Shipped+Dropped), 1 before any traffic.
	ShippedRatio float64 `json:"shippedRatio"`
	// Segments counts the stream's synthesized segments and
	// DeadlineMisses those that overran their slot budget.
	Segments       uint64 `json:"segments"`
	DeadlineMisses uint64 `json:"deadlineMisses"`
}

// Report returns the session's current summary.
func (s *Session) Report() SessionReport {
	rep := SessionReport{
		ID:                s.id,
		Evicted:           s.evicted.Load(),
		DegradationReport: s.stream.Report(),
		ShippedRatio:      1,
		Segments:          s.stream.segments.Load(),
		DeadlineMisses:    s.stream.late.Load(),
	}
	if total := rep.Shipped + rep.Dropped; total > 0 {
		rep.ShippedRatio = float64(rep.Shipped) / float64(total)
	}
	return rep
}
