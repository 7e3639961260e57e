package dispatch

import (
	"sync"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

// JobType distinguishes plain sequential tasks (Falkon-style single-process
// mode) from MPI jobs that go through the mpiexec decomposition.
type JobType int

// Job types.
const (
	Sequential JobType = iota
	MPI
)

func (t JobType) String() string {
	if t == MPI {
		return "MPI"
	}
	return "sequential"
}

// Job is one unit of user work submitted to the dispatcher.
type Job struct {
	Spec hydra.JobSpec
	Type JobType

	retries   int
	submitted time.Time
	live      *liveJob // the job's table entry, set by admit (lifecycle.go)
	// seq is the per-submit sequence number; the sharded scheduling pass
	// always launches the lowest-seq queued job (steal.go), which keeps
	// FIFO/FCFS order observable independent of shard placement. Retried
	// jobs keep their original seq.
	seq int64
}

// Procs returns the number of workers the job needs.
func (j *Job) Procs() int {
	if j.Type == Sequential {
		return 1
	}
	return j.Spec.NProcs
}

// JobResult is the final outcome of one job.
type JobResult struct {
	JobID   string
	Failed  bool
	Err     string
	Retries int
	// Start/Stop are offsets from the dispatcher epoch; Start is the moment
	// the job's tasks were handed to workers.
	Start, Stop time.Duration
	// TaskResults holds the per-rank results in completion order.
	TaskResults []proto.Result
	// Workers lists the worker IDs the job ran on.
	Workers []string
}

// Handle tracks an in-flight job.
type Handle struct {
	jobID string

	mu        sync.Mutex
	done      chan struct{} // lazily allocated: callers on the OnDone demux never pay for it
	completed bool
	res       JobResult
	cb        func(JobResult)   // the first OnDone callback: most handles have one
	more      []func(JobResult) // any later ones, in registration order
}

// closedChan is the shared already-closed channel handed to Done() callers
// who ask after completion but before any waiter forced an allocation.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// JobID returns the job's identifier.
func (h *Handle) JobID() string { return h.jobID }

// Done is closed when the job reaches a terminal state.
func (h *Handle) Done() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done == nil {
		if h.completed {
			h.done = closedChan
		} else {
			h.done = make(chan struct{})
		}
	}
	return h.done
}

// Wait blocks until the job completes and returns its result.
func (h *Handle) Wait() JobResult {
	<-h.Done()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res
}

// TryResult returns the result if the job has completed.
func (h *Handle) TryResult() (JobResult, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.completed {
		return h.res, true
	}
	return JobResult{}, false
}

// OnDone registers fn to run once when the job reaches a terminal state; if
// it already has, fn runs immediately on the caller's goroutine, otherwise on
// the goroutine that resolves the job. This is the shared completion demux
// for batched submitters: one callback per job instead of one goroutine
// parked on Done() per job.
//
// For a handle a dispatcher returned, fn runs under Dispatcher.mu — every
// completion goes through resolveLocked. fn must not block and must not call
// back into that dispatcher (Submit, SubmitBatch, Drain, Close, ...):
// doing so deadlocks on the mutex its caller holds. Work that follows a
// completion is handed to another goroutine; fn may only enqueue it.
func (h *Handle) OnDone(fn func(JobResult)) {
	h.mu.Lock()
	if h.completed {
		res := h.res
		h.mu.Unlock()
		fn(res)
		return
	}
	if h.cb == nil {
		h.cb = fn
	} else {
		h.more = append(h.more, fn)
	}
	h.mu.Unlock()
}

func (h *Handle) complete(res JobResult) {
	h.mu.Lock()
	h.res = res
	h.completed = true
	cb, more := h.cb, h.more
	h.cb, h.more = nil, nil
	if h.done != nil {
		close(h.done)
	}
	h.mu.Unlock()
	if cb != nil {
		cb(res)
	}
	for _, fn := range more {
		fn(res)
	}
}
