package bluefi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bluefi/internal/faults"
	"bluefi/internal/obs"
)

// Pool is a fleet of Synthesizers behind a bounded work queue — the
// concurrent entry point for multi-packet workloads: beacon fleets, PER
// sweeps, and A2DP streams. Each worker goroutine owns one Synthesizer,
// so jobs never share synthesis state; results land at the index of the
// job that produced them, never reordered by completion.
//
// All Pool methods are safe for concurrent use. Synthesis is
// deterministic per job: a job's PSDU does not depend on which worker ran
// it or on what else is in flight (every worker targets the same chip
// seed policy, and the parallel rehearsal search inside each Synthesizer
// is order-independent by construction).
//
// The pool is fault-tolerant: a panicking job is converted into that
// job's *PanicError and the worker respawns, and per-job deadlines and
// bounded retries come from Options.JobTimeout and Options.Retry. The
// queue holds 4×workers jobs; a submission to a full queue waits for
// room, so backpressure is lossless. Batch calls on a closed pool return
// ErrPoolClosed instead of panicking.
type Pool struct {
	syns []*Synthesizer
	q    *jobQueue
	opts Options

	mu      sync.Mutex
	closed  bool          // guarded by mu
	drained chan struct{} // created by the first Shutdown, guarded by mu
	wg      sync.WaitGroup

	// inj is the pool-level fault injector (nil without Options.Faults):
	// worker panics and job latency inflation fire here, on the worker
	// goroutine, under the recovery layer.
	inj *faults.Injector

	// met is nil without Options.Telemetry; obsCtx carries the registry
	// for per-job spans.
	met    *poolMetrics
	obsCtx context.Context
}

// Typed pool errors. Batch results and stream constructors return these
// instead of panicking; errors.Is matches them through retry wrapping.
var (
	// ErrPoolClosed: the job was submitted to (or queued on) a pool that
	// has been closed.
	ErrPoolClosed = errors.New("bluefi: pool is closed")
	// ErrJobTimeout: the job did not complete within Options.JobTimeout.
	// The worker executing it is not interrupted — synthesis is CPU-bound
	// and uncancellable mid-flight — but its result is discarded.
	ErrJobTimeout = errors.New("bluefi: job exceeded JobTimeout")
)

// PanicError is the error a job reports when its execution panicked.
// The worker that hit it has already been respawned; the panic never
// escapes the pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("bluefi: job panicked: %v", e.Value) }

// RetryPolicy bounds how a pool job retries after a transient failure
// (worker panic, job timeout, injected fault). Real synthesis errors —
// bad input, no covering channel — are never retried. The first retry
// waits 1 ms and each further one doubles the wait.
type RetryPolicy struct {
	// MaxAttempts caps total tries (≤1 = no retry).
	MaxAttempts int
}

// backoffFor returns the delay before retry attempt n (1-based count of
// failures so far): 1 ms doubled n−1 times.
func backoffFor(n int) time.Duration {
	// Past 2^20 ms the job has long outlived any caller's patience.
	return time.Millisecond << min(n-1, 20)
}

// transientErr classifies the failures a retry or the degradation
// policy may absorb: injected faults, worker panics and job timeouts.
// Real synthesis errors (bad input, no covering channel) and a closed
// pool always propagate.
func transientErr(err error) bool {
	var pe *PanicError
	return faults.IsInjected(err) || errors.As(err, &pe) || errors.Is(err, ErrJobTimeout)
}

// noDeadline marks a job submitted without a slot deadline: it sorts
// after every deadline-bearing job, so batch work yields to real-time
// audio segments, and deadline-less jobs among themselves run FIFO.
const noDeadline = ^uint64(0)

// poolJob is one queued unit of work. fn must confine its writes to
// state owned by the job (the await side reads results only after done),
// so an abandoned job — one whose waiter timed out — can still finish
// harmlessly on its worker.
type poolJob struct {
	fn       func(*Synthesizer) error
	done     chan struct{}
	err      error  // written once, before done is closed
	deadline uint64 // slot-clock deadline; noDeadline for batch work
	seq      uint64 // admission order, assigned by push; the tie-break
}

// jobQueue is the pool's bounded job buffer. It replaces the unbuffered
// jobs channel so that typed closed-pool errors and graceful drain are
// expressible. It has one order (DESIGN.md §14.3): pop takes the lowest
// (deadline, seq) pair, so deadline-stamped work runs earliest-deadline-
// first and deadline-less work runs FIFO behind it.
type jobQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	items  []*poolJob // guarded by mu
	max    int
	seq    uint64 // guarded by mu; admission counter
	closed bool   // guarded by mu

	met *poolMetrics
}

func newJobQueue(max int, met *poolMetrics) *jobQueue {
	q := &jobQueue{max: max, met: met}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, waiting for room while the queue is full. It
// returns ErrPoolClosed, without enqueueing, on a closed queue.
func (q *jobQueue) push(j *poolJob) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.items) >= q.max {
		q.cond.Wait()
	}
	if q.closed {
		return ErrPoolClosed
	}
	j.seq = q.seq
	q.seq++
	q.items = append(q.items, j)
	q.met.enqueued()
	q.cond.Broadcast()
	return nil
}

// pop blocks for the next job; nil means the queue is closed and
// drained, so the worker should exit.
func (q *jobQueue) pop() *poolJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	// items is in seq order, so the first job with the lowest deadline
	// is the lowest (deadline, seq) pair. The queue is small and
	// bounded, so the linear scan beats heap bookkeeping.
	pick := 0
	for i, it := range q.items {
		if it.deadline < q.items[pick].deadline {
			pick = i
		}
	}
	j := q.items[pick]
	q.items = append(q.items[:pick], q.items[pick+1:]...)
	q.met.dequeued()
	q.cond.Broadcast()
	return j
}

// depth reports the number of jobs waiting in the queue.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close marks the queue closed. Queued jobs stay queued — workers drain
// them — until failPending discards them.
func (q *jobQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// failPending fails every queued job with err and empties the queue;
// returns how many were dropped.
func (q *jobQueue) failPending(err error) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	for _, j := range q.items {
		q.met.dequeued()
		j.err = err
		close(j.done)
	}
	q.items = nil
	q.cond.Broadcast()
	return n
}

// poolMetrics holds the pool's telemetry handles; nil disables them at
// one branch per record. Worker utilization is derivable by a scraper as
// sum(bluefi_pool_job_seconds) / (bluefi_pool_workers × uptime); the
// jobs-in-flight gauge gives the instantaneous view.
type poolMetrics struct {
	reg      *obs.Registry // event sink for fault events
	workers  *obs.Gauge
	queue    *obs.Gauge
	inflight *obs.Gauge
	jobs     *obs.Counter
	jobSecs  *obs.Histogram

	panics   *obs.Counter
	retries  *obs.Counter
	timeouts *obs.Counter
}

func newPoolMetrics(r *obs.Registry) *poolMetrics {
	if r == nil {
		return nil
	}
	return &poolMetrics{
		reg:      r,
		workers:  r.Gauge("bluefi_pool_workers", "synthesizer workers in the pool"),
		queue:    r.Gauge("bluefi_pool_queue_depth", "jobs enqueued but not yet picked up by a worker"),
		inflight: r.Gauge("bluefi_pool_jobs_inflight", "jobs currently executing"),
		jobs:     r.Counter("bluefi_pool_jobs_total", "jobs completed"),
		jobSecs: r.Histogram("bluefi_pool_job_seconds", "per-job execution latency",
			obs.ExpBuckets(1e-4, 3, 12)),
		panics:   r.Counter("bluefi_pool_worker_panics_total", "job panics recovered (worker respawned)"),
		retries:  r.Counter("bluefi_pool_job_retries_total", "job attempts re-run under the retry policy"),
		timeouts: r.Counter("bluefi_pool_job_timeouts_total", "jobs abandoned after JobTimeout"),
	}
}

func (m *poolMetrics) setWorkers(n int) {
	if m == nil {
		return
	}
	m.workers.Set(int64(n))
}

// enqueued/dequeued/finished bracket one job's life-cycle.
func (m *poolMetrics) enqueued() {
	if m == nil {
		return
	}
	m.queue.Inc()
}

func (m *poolMetrics) dequeued() {
	if m == nil {
		return
	}
	m.queue.Dec()
}

func (m *poolMetrics) started() {
	if m == nil {
		return
	}
	m.inflight.Inc()
}

func (m *poolMetrics) finished(seconds float64) {
	if m == nil {
		return
	}
	m.inflight.Dec()
	m.jobs.Inc()
	m.jobSecs.Observe(seconds)
}

func (m *poolMetrics) panicked() {
	if m == nil {
		return
	}
	m.panics.Inc()
	m.reg.Event("pool.worker_panic")
}

func (m *poolMetrics) retried() {
	if m == nil {
		return
	}
	m.retries.Inc()
	m.reg.Event("pool.retry")
}

func (m *poolMetrics) timedOut() {
	if m == nil {
		return
	}
	m.timeouts.Inc()
	m.reg.Event("pool.timeout")
}

// NewPool builds a pool of n independent Synthesizers with the same
// options; n ≤ 0 sizes it to GOMAXPROCS. The queue holds 4×workers
// jobs.
func NewPool(opts Options, n int) (*Pool, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	met := newPoolMetrics(opts.Telemetry)
	p := &Pool{
		q:      newJobQueue(4*n, met),
		opts:   opts,
		met:    met,
		obsCtx: obs.WithRegistry(context.Background(), opts.Telemetry),
	}
	if opts.Faults != nil {
		p.inj = faults.New(*opts.Faults, opts.Telemetry)
	}
	for i := 0; i < n; i++ {
		s, err := New(opts)
		if err != nil {
			p.q.close()
			p.wg.Wait()
			return nil, err
		}
		p.syns = append(p.syns, s)
		p.wg.Add(1)
		go p.worker(s)
	}
	p.met.setWorkers(len(p.syns))
	return p, nil
}

// worker is one pool goroutine's loop. A job panic — a bug in a job
// closure, or the injector's PanicPoint — is recovered here: the
// in-flight job fails with *PanicError and a fresh worker goroutine
// respawns around the same Synthesizer, so pool capacity survives
// crashing jobs.
func (p *Pool) worker(s *Synthesizer) {
	var cur *poolJob
	defer func() {
		if r := recover(); r != nil {
			p.met.panicked()
			if cur != nil {
				cur.err = &PanicError{Value: r}
				close(cur.done)
			}
			p.wg.Add(1)
			go p.worker(s)
		}
		p.wg.Done()
	}()
	for {
		j := p.q.pop()
		if j == nil {
			return
		}
		cur = j
		p.execute(s, j)
		cur = nil
	}
}

// execute runs one job on its worker. No recover here — panics unwind
// to the worker's respawn layer, which owns the job's failure.
func (p *Pool) execute(s *Synthesizer, j *poolJob) {
	p.met.started()
	_, sp := obs.StartSpan(p.obsCtx, "pool.job")
	defer func() { p.met.finished(sp.End().Seconds()) }()
	p.inj.PanicPoint()
	if d := p.inj.LatencyPenalty(0); d > 0 {
		time.Sleep(d)
	}
	j.err = j.fn(s)
	close(j.done)
}

// tryOne submits fn once with a slot deadline and waits for it,
// honoring JobTimeout. On timeout the attempt is abandoned: its worker
// still finishes it in the background, but the result is discarded
// (fn's contract: write only job-owned state).
func (p *Pool) tryOne(deadline uint64, fn func(*Synthesizer) error) error {
	j := &poolJob{fn: fn, done: make(chan struct{}), deadline: deadline}
	if err := p.q.push(j); err != nil {
		return err
	}
	if t := p.opts.JobTimeout; t > 0 {
		timer := time.NewTimer(t)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
			p.met.timedOut()
			return ErrJobTimeout
		}
	} else {
		<-j.done
	}
	return j.err
}

// poolDo runs fn on a pool worker under the timeout and retry policy
// and returns its value; the job carries no slot deadline, so it yields
// to deadline-stamped work.
func poolDo[T any](p *Pool, fn func(*Synthesizer) (T, error)) (T, error) {
	return poolDoDeadline(p, noDeadline, fn)
}

// poolDoDeadline is poolDo with a slot-clock deadline: the queue
// services the earliest deadline first. Each attempt writes into an
// attempt-local cell, so a timed-out attempt finishing late can never
// race the winner.
func poolDoDeadline[T any](p *Pool, deadline uint64, fn func(*Synthesizer) (T, error)) (T, error) {
	var out T
	max := p.opts.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		cell := new(T)
		err = p.tryOne(deadline, func(s *Synthesizer) error {
			v, ferr := fn(s)
			if ferr != nil {
				return ferr
			}
			*cell = v
			return nil
		})
		if err == nil {
			out = *cell // safe: the attempt's done channel closed cleanly
			return out, nil
		}
		if attempt >= max || !transientErr(err) {
			return out, err
		}
		p.met.retried()
		time.Sleep(backoffFor(attempt))
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.syns) }

// QueueDepth returns the number of jobs enqueued but not yet picked up
// by a worker — the fleet's per-shard stats surface it as backlog, and
// the session admission controller folds it into its headroom
// projection.
func (p *Pool) QueueDepth() int { return p.q.depth() }

// JobLatency returns the mean per-job execution latency in seconds and
// the job count it averages over — (0, 0) without telemetry or before
// the first job completes. The session admission controller converts it
// to slots as its per-segment service-time estimate.
func (p *Pool) JobLatency() (meanSeconds float64, jobs int64) {
	if p.met == nil {
		return 0, 0
	}
	n := p.met.jobSecs.Count()
	if n == 0 {
		return 0, 0
	}
	return p.met.jobSecs.Sum() / float64(n), n
}

// InjectedFaults returns how many faults the pool's injector has fired
// (0 without an armed Options.Faults plan) — chaos reports use it to
// tell "survived the storm" from "no storm happened".
func (p *Pool) InjectedFaults() int64 { return p.inj.Injected() }

// isClosed reports the close flag.
func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close drains the pool and stops the workers: queued and in-flight
// jobs finish first. Jobs submitted after Close fail with ErrPoolClosed.
// Close and Shutdown are idempotent: later calls simply wait for the
// drain the first call started, so `defer pool.Close()` composes with
// an explicit Shutdown on the happy path.
func (p *Pool) Close() { _ = p.Shutdown(context.Background()) }

// Shutdown is Close with a deadline: it drains queued and in-flight
// jobs until ctx expires, then fails still-queued jobs with
// ErrPoolClosed and returns ctx.Err(). In-flight jobs cannot be
// interrupted (synthesis is CPU-bound); their workers exit as soon as
// they finish. A nil error means the pool drained completely. Repeated
// calls share the first call's drain and observe the same contract.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	if first {
		p.drained = make(chan struct{})
		drained := p.drained
		go func() {
			p.wg.Wait()
			close(drained)
		}()
	}
	drained := p.drained
	p.mu.Unlock()
	if first {
		p.q.close()
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		p.q.failPending(ErrPoolClosed)
		<-drained
		return ctx.Err()
	}
}

// BatchJob describes one synthesis job of a mixed batch: exactly one of
// the three fields must be set.
type BatchJob struct {
	Beacon *BeaconJob
	BR     *BRJob
	Raw    *RawGFSKJob
}

// BeaconJob is a BLE advertising synthesis request (see
// Synthesizer.Beacon).
type BeaconJob struct {
	ADStructures []byte
	Addr         [6]byte
	BLEChannel   int
}

// BRJob is a classic BR/EDR baseband synthesis request (see
// Synthesizer.BRPacket).
type BRJob struct {
	Device    Device
	Packet    *BasebandPacket
	BTChannel int
}

// RawGFSKJob is an arbitrary-air-bits synthesis request (see
// Synthesizer.RawGFSK).
type RawGFSKJob struct {
	AirBits []byte
	FreqMHz float64
	BLE     bool
}

// BatchResult pairs one job's outcome with its error; exactly one of the
// two fields is set. Err may be a synthesis error, ErrPoolClosed,
// ErrJobTimeout or a *PanicError.
type BatchResult struct {
	Packet *Packet
	Err    error
}

func runJob(s *Synthesizer, job BatchJob) BatchResult {
	switch {
	case job.Beacon != nil && job.BR == nil && job.Raw == nil:
		pkt, err := s.Beacon(job.Beacon.ADStructures, job.Beacon.Addr, job.Beacon.BLEChannel)
		return BatchResult{Packet: pkt, Err: err}
	case job.BR != nil && job.Beacon == nil && job.Raw == nil:
		pkt, err := s.BRPacket(job.BR.Device, job.BR.Packet, job.BR.BTChannel)
		return BatchResult{Packet: pkt, Err: err}
	case job.Raw != nil && job.Beacon == nil && job.BR == nil:
		pkt, err := s.RawGFSK(job.Raw.AirBits, job.Raw.FreqMHz, job.Raw.BLE)
		return BatchResult{Packet: pkt, Err: err}
	}
	return BatchResult{Err: fmt.Errorf("bluefi: batch job must set exactly one of Beacon, BR, Raw")}
}

// SynthesizeBatch runs a mixed batch of jobs across the pool and returns
// one result per job, in job order. Jobs are independent: an error in one
// does not abort the others, and on a closed pool every result carries
// ErrPoolClosed. Must not be called from inside another job (it would
// deadlock waiting for a free worker).
func (p *Pool) SynthesizeBatch(jobs []BatchJob) []BatchResult {
	results := make([]BatchResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := poolDo(p, func(s *Synthesizer) (BatchResult, error) {
				r := runJob(s, jobs[i])
				return r, r.Err
			})
			if err != nil {
				res = BatchResult{Err: err}
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	return results
}

// BeaconBatch synthesizes a fleet of BLE advertising packets — the
// beacon-deployment workload — returning one result per job, in order.
func (p *Pool) BeaconBatch(jobs []BeaconJob) []BatchResult {
	batch := make([]BatchJob, len(jobs))
	for i := range jobs {
		batch[i] = BatchJob{Beacon: &jobs[i]}
	}
	return p.SynthesizeBatch(batch)
}
