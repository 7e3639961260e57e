// Package core is the JETS engine: the stand-alone form of the system
// (paper §5.1). It wires the central dispatcher to a set of pilot-job
// workers, parses the paper's input-file format
//
//	MPI: 4 namd2.sh input-1.pdb output-1.log
//	MPI: 8 namd2.sh input-2.pdb output-2.log
//
// and runs batches to completion, reporting per-job results and the Eq. (1)
// utilization summary. Hostnames are never part of a job specification: the
// engine assembles groups dynamically from whichever workers are available,
// which is the essential JETS property.
package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/metrics"
	"jets/internal/obs"
	"jets/internal/proto"
	"jets/internal/router"
	"jets/internal/worker"
)

// Options configures an Engine.
type Options struct {
	// LocalWorkers, when positive, starts that many in-process worker
	// agents, each connected to its dispatcher over an in-memory pipe — the
	// single-machine form of an allocation. Zero means workers join
	// externally (cmd/jets-worker).
	LocalWorkers int
	// CoresPerWorker is reported by local workers at registration.
	CoresPerWorker int
	// Runner executes user processes on local workers; defaults to
	// hydra.ExecRunner (real subprocesses).
	Runner hydra.Runner
	// NewQueue and Group select scheduling policies (defaults: FIFO, FCFS).
	// NewQueue constructs one queue policy per scheduling shard; a policy
	// that must order the whole backlog also needs Shards: 1.
	NewQueue func() dispatch.QueuePolicy
	Group    dispatch.GroupPolicy
	// Shards is the scheduling-shard count; 0 derives it from GOMAXPROCS.
	Shards int
	// ListenAddr is the dispatcher's listen endpoint for external workers;
	// empty binds an ephemeral loopback port.
	ListenAddr string
	// MaxJobRetries for worker-fault resubmission.
	MaxJobRetries int
	// RetryBackoff/RetryBackoffMax shape the capped per-attempt delay
	// before a faulted job is requeued (see dispatch.Config.RetryBackoff).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// HeartbeatTimeout for declaring a silent external worker dead; default
	// 10s. Each is told to send a heartbeat every tenth of it; local workers
	// send none (see dispatch.Config.HeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// JobTimeout bounds each job; 0 disables.
	JobTimeout time.Duration
	// OnOutput receives task output; nil discards. It runs concurrently,
	// on each worker link's reader goroutine (dispatch.Config.OnOutput),
	// so a callback that shares state across tasks must lock it.
	OnOutput func(taskID, stream string, data []byte)
	// OnEvent receives dispatcher trace events; nil disables tracing.
	OnEvent func(dispatch.Event)
	// WriteCoalesce is ignored: a task is written and flushed by the
	// goroutine that seats it, and a worker's other frames are drained from
	// its outbox with one flush per batch. The field survives only because
	// the frozen benchmark (bench/inproc.go) sets it; delete both with the
	// next benchmark change.
	WriteCoalesce int
	// Obs, when non-nil, exports the dispatcher's instrumentation plus the
	// hydra/PMI and worker package metrics through the registry, ready for
	// obs.Serve.
	Obs *obs.Registry
	// Journal, when non-nil, makes dispatcher job state durable and recovers
	// prior state at startup (see dispatch.Config.Journal). The dispatcher
	// takes ownership and closes it. Takes precedence over DataDir.
	Journal journal.Journal
	// DataDir, when non-empty and Journal is nil, opens (creating the
	// directory if needed) a write-ahead journal there — the stand-alone
	// tool's -data-dir flag. Jobs accepted by a previous run that never
	// completed are rebuilt at startup; RecoveredJobs exposes their handles.
	DataDir string
	// HotQueueJobs bounds the fully-hydrated in-memory queue window per
	// scheduling shard; the excess backlog spills to disk as a cold tail
	// (see dispatch.Config.HotQueueJobs). 0 uses the dispatcher default;
	// negative disables spilling.
	HotQueueJobs int
	// Federate, when >= 2, runs that many dispatcher instances in this
	// process behind a work router (internal/router): submissions partition
	// across the instances by consistent hash with least-loaded fallback,
	// queued work rebalances between them, and local workers spread across
	// the instances round-robin, each pinned to its instance. With DataDir
	// set, each instance journals under DataDir/inst<i> and the router's
	// routing table under DataDir/router, so any subset of the federation
	// recovers after a crash. 0 or 1 keeps the single-dispatcher engine
	// unchanged.
	Federate int
	// FederatePeers adds out-of-process dispatcher instances (by address) to
	// the federation; the router attaches to them over the wire protocol.
	FederatePeers []string
}

// Engine is a running JETS instance — or, with Options.Federate, a running
// federation of instances behind one router presenting the same API.
type Engine struct {
	d     *dispatch.Dispatcher   // first (or only) instance
	insts []*dispatch.Dispatcher // all instances; len > 1 when federated
	rtr   *router.Router         // nil in single-dispatcher mode
	addr  string
	addrs []string // every instance's worker endpoint

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers []*worker.Worker
}

// NewEngine starts the dispatcher(s) and any local workers.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Federate >= 2 || len(opts.FederatePeers) > 0 {
		return newFederatedEngine(opts)
	}
	jnl := opts.Journal
	if jnl == nil && opts.DataDir != "" {
		w, err := journal.OpenWAL(journal.Options{Dir: opts.DataDir})
		if err != nil {
			return nil, fmt.Errorf("core: open journal: %w", err)
		}
		jnl = w
	}
	d := dispatch.New(opts.dispatchConfig("", opts.ListenAddr, jnl, opts.DataDir))
	if opts.Obs != nil {
		hydra.RegisterMetrics(opts.Obs)
		worker.RegisterMetrics(opts.Obs)
		journal.RegisterMetrics(opts.Obs)
	}
	addr, err := d.Start()
	if err != nil {
		return nil, err
	}
	e := &Engine{d: d, insts: []*dispatch.Dispatcher{d}, addr: addr, addrs: []string{addr}}
	if err := e.startLocalWorkers(opts); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// startLocalWorkers starts Options.LocalWorkers in-process workers, spread
// over the engine's instances round-robin, and waits for them to register so
// the first batch does not race registration.
func (e *Engine) startLocalWorkers(opts Options) error {
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	cores := opts.CoresPerWorker
	if cores <= 0 {
		cores = 1
	}
	for i := 0; i < opts.LocalWorkers; i++ {
		// A local worker shares its dispatcher's address space, so it is
		// pinned to one instance (round-robin) over an in-memory pipe; a
		// loopback socket would add two trips through the kernel per frame.
		conn, served := proto.Pipe()
		w, err := worker.New(worker.Config{
			ID:     fmt.Sprintf("local-%d", i),
			Host:   fmt.Sprintf("localhost/%d", i),
			Cores:  cores,
			Coord:  []int{i % 8, (i / 8) % 8, i / 64},
			Conn:   conn,
			Runner: opts.Runner,
		})
		if err != nil {
			return err
		}
		e.insts[i%len(e.insts)].ServeConn(served)
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go func(w *worker.Worker) {
			defer e.wg.Done()
			w.Run(ctx)
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.WorkerTotal() < opts.LocalWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: only %d/%d local workers registered", e.WorkerTotal(), opts.LocalWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// dispatchConfig is the dispatcher configuration these options describe, for
// the instance named instance (empty outside a federation) listening on addr
// and journaling to jnl under dataDir. Spilled specs live beside the journal
// they are referenced from, so recovery after a restart finds both or
// neither; no dataDir keeps the dispatcher's ephemeral temp-dir store.
func (opts Options) dispatchConfig(instance, addr string, jnl journal.Journal, dataDir string) dispatch.Config {
	spill := ""
	if dataDir != "" {
		spill = filepath.Join(dataDir, "spill")
	}
	return dispatch.Config{
		Addr:             addr,
		Instance:         instance,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		MaxJobRetries:    opts.MaxJobRetries,
		RetryBackoff:     opts.RetryBackoff,
		RetryBackoffMax:  opts.RetryBackoffMax,
		NewQueue:         opts.NewQueue,
		Shards:           opts.Shards,
		Group:            opts.Group,
		JobTimeout:       opts.JobTimeout,
		OnOutput:         opts.OnOutput,
		OnEvent:          opts.OnEvent,
		Obs:              opts.Obs,
		Journal:          jnl,
		HotQueueJobs:     opts.HotQueueJobs,
		SpillDir:         spill,
	}
}

// Addr returns the dispatcher endpoint for external workers (the first
// instance's, when federated; Addrs has them all).
func (e *Engine) Addr() string { return e.addr }

// Addrs returns every instance's worker endpoint.
func (e *Engine) Addrs() []string { return append([]string(nil), e.addrs...) }

// Dispatcher exposes the underlying dispatcher (the first instance, when
// federated) for advanced composition.
func (e *Engine) Dispatcher() *dispatch.Dispatcher { return e.d }

// Router exposes the federation router; nil in single-dispatcher mode.
func (e *Engine) Router() *router.Router { return e.rtr }

// Workers returns the engine's local worker agents (for fault injection in
// tests and experiments).
func (e *Engine) Workers() []*worker.Worker { return e.workers }

// RecoveredJobs returns the handles of jobs rebuilt from the journal at
// startup (empty without a journal). A restarted engine waits on them to
// finish the workload it inherited. Federated engines report the router's
// recovered routing table — the handles clients were waiting on.
func (e *Engine) RecoveredJobs() []*dispatch.Handle {
	if e.rtr != nil {
		return e.rtr.RecoveredJobs()
	}
	return e.d.RecoveredJobs()
}

// RecoveryError reports a journal replay failure during startup; recovery is
// best-effort past the error point (see dispatch.RecoveryError).
func (e *Engine) RecoveryError() error {
	var errs []error
	for _, d := range e.insts {
		errs = append(errs, d.RecoveryError())
	}
	if e.rtr != nil {
		errs = append(errs, e.rtr.RecoveryError())
	}
	return errors.Join(errs...)
}

// Submit enqueues one job, through the router when federated.
func (e *Engine) Submit(job dispatch.Job) (*dispatch.Handle, error) {
	if e.rtr != nil {
		return e.rtr.Submit(job)
	}
	return e.d.Submit(job)
}

// SubmitBatch enqueues a group of jobs in one dispatcher pass; see
// dispatch.SubmitBatch.
func (e *Engine) SubmitBatch(jobs []dispatch.Job) ([]*dispatch.Handle, error) {
	if e.rtr != nil {
		return e.rtr.SubmitBatch(jobs)
	}
	return e.d.SubmitBatch(jobs)
}

// StageFile pushes a file to every worker's local cache (every instance's
// workers, when federated).
func (e *Engine) StageFile(name string, data []byte) {
	for _, d := range e.insts {
		d.StageFile(name, data)
	}
}

// Close shuts the engine down without draining: router first (stops
// rebalancing and fails un-routed handles), then every instance.
func (e *Engine) Close() {
	if e.rtr != nil {
		e.rtr.Close()
	}
	for _, d := range e.insts {
		d.Close()
	}
	e.cancel()
	e.wg.Wait()
}

// WorkerTotal sums the workers registered right now across instances.
func (e *Engine) WorkerTotal() int {
	n := 0
	for _, d := range e.insts {
		n += d.Workers()
	}
	return n
}

// peakWorkers sums each instance's high-water registered-worker count. The
// batch report reads it when the batch ends: external workers register after
// submission, so a live count taken before the first job ran reported an
// allocation of 0.
func (e *Engine) peakWorkers() int {
	n := 0
	for _, d := range e.insts {
		n += d.PeakWorkers()
	}
	return n
}

// records merges the per-instance samples of recently completed jobs
// (submission interleaving across instances has no global order; callers
// summarize, they don't sequence).
func (e *Engine) records() []metrics.JobRecord {
	if len(e.insts) == 1 {
		return e.d.Records()
	}
	var recs []metrics.JobRecord
	for _, d := range e.insts {
		recs = append(recs, d.Records()...)
	}
	return recs
}

// tally merges the per-instance sums over every completed job.
func (e *Engine) tally() metrics.Tally {
	var t metrics.Tally
	for _, d := range e.insts {
		t.Merge(d.Tally())
	}
	return t
}

// BatchReport summarizes one batch execution.
type BatchReport struct {
	Results []dispatch.JobResult
	// Records is a bounded sample: each dispatcher's most recently completed
	// jobs (dispatch.Dispatcher.Records). Summary is computed from running
	// sums over every completed job, not from the sample.
	Records []metrics.JobRecord
	Summary metrics.Summary
	// Allocation is the worker count used for the utilization summary.
	Allocation int
	Elapsed    time.Duration
}

// Failed counts failed jobs.
func (r *BatchReport) Failed() int {
	n := 0
	for _, res := range r.Results {
		if res.Failed {
			n++
		}
	}
	return n
}

// RunBatch submits all jobs and waits for completion (bounded by ctx).
func (e *Engine) RunBatch(ctx context.Context, jobs []dispatch.Job) (*BatchReport, error) {
	start := time.Now()
	handles := make([]*dispatch.Handle, 0, len(jobs))
	for _, j := range jobs {
		h, err := e.Submit(j)
		if err != nil {
			return nil, fmt.Errorf("core: submit %s: %w", j.Spec.JobID, err)
		}
		handles = append(handles, h)
	}
	report := &BatchReport{}
	for _, h := range handles {
		select {
		case <-h.Done():
		case <-ctx.Done():
			report.Allocation = e.peakWorkers()
			return report, ctx.Err()
		}
		res, _ := h.TryResult()
		report.Results = append(report.Results, res)
	}
	report.Elapsed = time.Since(start)
	report.Records = e.records()
	report.Allocation = e.peakWorkers()
	report.Summary = e.tally().Summary(report.Allocation)
	return report, nil
}

// RunFile parses the stand-alone input format and runs the batch.
func (e *Engine) RunFile(ctx context.Context, r io.Reader) (*BatchReport, error) {
	jobs, err := ParseInput(r)
	if err != nil {
		return nil, err
	}
	return e.RunBatch(ctx, jobs)
}

// ParseInput reads the stand-alone JETS input format: one job per line.
//
//	MPI: <nprocs> <cmd> [args...]   — an MPI job on nprocs nodes
//	SEQ: <cmd> [args...]            — a sequential task
//	<cmd> [args...]                 — shorthand for SEQ:
//
// Blank lines and lines starting with '#' are ignored. Job IDs are assigned
// from the line order.
func ParseInput(r io.Reader) ([]dispatch.Job, error) {
	var jobs []dispatch.Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		job, err := parseLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading input: %w", err)
	}
	return jobs, nil
}

func parseLine(line string, lineNo int) (dispatch.Job, error) {
	id := fmt.Sprintf("job%d", lineNo)
	switch {
	case strings.HasPrefix(line, "MPI:"):
		fields := strings.Fields(strings.TrimPrefix(line, "MPI:"))
		if len(fields) < 2 {
			return dispatch.Job{}, fmt.Errorf("core: line %d: MPI line needs <nprocs> <cmd>", lineNo)
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil || n <= 0 {
			return dispatch.Job{}, fmt.Errorf("core: line %d: bad process count %q", lineNo, fields[0])
		}
		return dispatch.Job{
			Spec: hydra.JobSpec{JobID: id, NProcs: n, Cmd: fields[1], Args: fields[2:]},
			Type: dispatch.MPI,
		}, nil
	case strings.HasPrefix(line, "SEQ:"):
		fields := strings.Fields(strings.TrimPrefix(line, "SEQ:"))
		if len(fields) < 1 {
			return dispatch.Job{}, fmt.Errorf("core: line %d: SEQ line needs <cmd>", lineNo)
		}
		return dispatch.Job{
			Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: fields[0], Args: fields[1:]},
			Type: dispatch.Sequential,
		}, nil
	default:
		fields := strings.Fields(line)
		return dispatch.Job{
			Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: fields[0], Args: fields[1:]},
			Type: dispatch.Sequential,
		}, nil
	}
}

// FormatReport renders a batch report in the jets tool's output style.
func FormatReport(r *BatchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "jobs:        %d (%d failed)\n", len(r.Results), r.Failed())
	fmt.Fprintf(&b, "allocation:  %d workers\n", r.Allocation)
	fmt.Fprintf(&b, "makespan:    %v\n", r.Summary.Makespan.Round(time.Millisecond))
	fmt.Fprintf(&b, "mean run:    %v\n", r.Summary.MeanRun.Round(time.Millisecond))
	fmt.Fprintf(&b, "rate:        %.1f jobs/s\n", r.Summary.Rate)
	fmt.Fprintf(&b, "utilization: %.1f%%\n", 100*r.Summary.Utilization)
	return b.String()
}
