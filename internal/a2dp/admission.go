package a2dp

import (
	"math"
	"sort"
)

// Admission control (DESIGN.md §14): before a new A2DP session joins a
// shared pool, the controller replays the candidate session set's
// steady-state job arrivals — every L2CAP segment of every media packet
// over a short horizon — through the EDF virtual-time simulator, seeded
// with the pool's *measured* service time (the bluefi_pool_job_seconds
// histogram mean, converted to slots) and its current queue backlog.
// The projection's deadline-miss ratio against AdmissionMissBudget is
// the admit/reject answer. Because the projection is a pure function of
// (demands, config), the same fleet replayed with the same inputs
// admits the same prefix — the soak's capacity knee is a property of
// the workload, not of the host.

// SessionDemand describes one session's steady-state synthesis load in
// slot time.
type SessionDemand struct {
	// ID names the session (deterministic tie-breaks, diagnostics).
	ID string
	// SegmentsPerPacket is how many L2CAP segments (pool jobs) one media
	// packet fans out into.
	SegmentsPerPacket int
	// SegmentSlots is the airtime of one segment in 625 µs slots,
	// rounded up to the even slot the master resumes on.
	SegmentSlots int
	// PacketPeriodSlots is the stream-time spacing between media packets
	// (PCM samples per Send ÷ sample rate, in slots).
	PacketPeriodSlots float64
	// PhaseSlots staggers the session's first packet.
	PhaseSlots float64
}

// AdmissionMissBudget is the largest projected deadline-miss ratio an
// admitted fleet may carry: a candidate whose projection exceeds it is
// refused.
const AdmissionMissBudget = 0.05

// The projection's fixed shape: admissionSlackSlots is the queueing
// allowance added to every segment deadline (how far past its nominal
// slot a segment may land before the projection calls it a miss),
// horizonPackets is how many media packets per session it replays, and
// maxJobs caps the simulated job count. The cap bounds the work one
// admission can ask for: a session whose configuration fans each packet
// into many segments is truncated there, and the projection notes it.
const (
	admissionSlackSlots = 4
	horizonPackets      = 16
	maxJobs             = 4096
)

// AdmissionConfig parameterizes a headroom projection.
type AdmissionConfig struct {
	// Workers is the pool's worker count (minimum 1).
	Workers int
	// QueueDepth is the pool's current backlog: jobs already queued
	// ahead of the sessions' first packets. Simulated as deadline-less
	// work that occupies workers from slot 0.
	QueueDepth int
	// ServiceSlots is the per-segment synthesis service time estimate in
	// slots (default 1). Live callers derive it from the pool's job
	// latency histogram; the soak pins it for determinism.
	ServiceSlots float64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.ServiceSlots <= 0 {
		c.ServiceSlots = 1
	}
	return c
}

// shape resolves the demand's defaults: at least one segment per packet,
// two slots per segment when unset, and a packet period that back-to-back
// segments fill when unset.
func (d SessionDemand) shape() (segs, segSlots int, period float64) {
	segs = max(d.SegmentsPerPacket, 1)
	segSlots = d.SegmentSlots
	if segSlots < 1 {
		segSlots = 2
	}
	period = d.PacketPeriodSlots
	if period <= 0 {
		period = float64(segs * segSlots)
	}
	return segs, segSlots, period
}

// Projection is the admission controller's answer for one candidate
// session set.
type Projection struct {
	Sessions int `json:"sessions"`
	// Jobs is the scored (deadline-bearing) job count; Truncated marks a
	// job set clipped at maxJobs.
	Jobs      int  `json:"jobs"`
	Truncated bool `json:"truncated,omitempty"`
	// Utilization is offered service demand over worker capacity: >1
	// means the set cannot be sustained at any schedule.
	Utilization float64 `json:"utilization"`
	// MissRatio, P99SlackSlots and MinSlackSlots come from the EDF
	// virtual-time replay.
	MissRatio     float64 `json:"missRatio"`
	P99SlackSlots float64 `json:"p99SlackSlots"`
	MinSlackSlots float64 `json:"minSlackSlots"`
}

// BuildJobs expands the demand set into the deterministic job list the
// projection simulates: QueueDepth backlog jobs at slot 0 with no
// deadline, then per session horizonPackets packets, each fanning into
// SegmentsPerPacket jobs arriving together (the stream submits a Send's
// segments at once) with staggered per-segment slot deadlines. Demands
// are ordered by ID first so the sequence numbers — and therefore the
// EDF tie-breaks — never depend on caller map iteration.
func BuildJobs(demands []SessionDemand, cfg AdmissionConfig) []SlotJob {
	cfg = cfg.withDefaults()
	ordered := append([]SessionDemand(nil), demands...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	jobs := make([]SlotJob, 0, cfg.QueueDepth+len(ordered)*horizonPackets)
	seq := uint64(0)
	// Backlog runs first — it was submitted before everything the
	// candidate fleet will offer — but carries no slot of its own:
	// −Inf deadlines sort ahead of all audio work yet stay unscored.
	for i := 0; i < cfg.QueueDepth && len(jobs) < maxJobs; i++ {
		jobs = append(jobs, SlotJob{
			Session:      "",
			Seq:          seq,
			DeadlineSlot: math.Inf(-1),
			ServiceSlots: cfg.ServiceSlots,
		})
		seq++
	}
	// Interleave packets in time order across sessions (packet p of
	// every session before packet p+1 of any) so truncation at maxJobs
	// clips the horizon, not whole sessions.
	for p := 0; p < horizonPackets; p++ {
		for _, d := range ordered {
			segs, segSlots, period := d.shape()
			arrival := d.PhaseSlots + float64(p)*period
			for k := 0; k < segs; k++ {
				if len(jobs) >= maxJobs {
					return jobs
				}
				jobs = append(jobs, SlotJob{
					Session:      d.ID,
					Seq:          seq,
					ArrivalSlot:  arrival,
					DeadlineSlot: arrival + float64((k+1)*segSlots) + admissionSlackSlots,
					ServiceSlots: cfg.ServiceSlots,
				})
				seq++
			}
		}
	}
	return jobs
}

// ProjectAdmission replays the candidate session set through the EDF
// simulator and reports the projected deadline-miss ratio, tail slack
// and offered utilization. Callers admit when MissRatio stays within
// their budget.
func ProjectAdmission(demands []SessionDemand, cfg AdmissionConfig) Projection {
	cfg = cfg.withDefaults()
	jobs := BuildJobs(demands, cfg)
	sim := Simulate(jobs, cfg.Workers)

	// Sum offered load in sorted-ID order so float accumulation never
	// depends on caller ordering.
	ordered := append([]SessionDemand(nil), demands...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	var offered float64
	for _, d := range ordered {
		segs, _, period := d.shape()
		offered += float64(segs) * cfg.ServiceSlots / period
	}
	return Projection{
		Sessions:      len(demands),
		Jobs:          sim.Jobs,
		Truncated:     len(jobs) >= maxJobs,
		Utilization:   offered / float64(cfg.Workers),
		MissRatio:     sim.MissRatio,
		P99SlackSlots: sim.P99SlackSlots,
		MinSlackSlots: sim.MinSlackSlots,
	}
}
