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
	"fmt"
	"io"
	"os"
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
	// obshttp.Serve.
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
	// Federate is ignored: an engine is one dispatcher. The field survives
	// only because the frozen benchmark (bench/probes.go) sets it; delete
	// both with the next benchmark change.
	Federate int
}

// Engine is a running JETS instance: one dispatcher and its local workers.
type Engine struct {
	d *dispatch.Dispatcher

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers []*worker.Worker
}

// NewEngine starts the dispatcher and any local workers.
func NewEngine(opts Options) (*Engine, error) {
	jnl := opts.Journal
	if jnl == nil && opts.DataDir != "" {
		if err := refuseFederatedDir(opts.DataDir); err != nil {
			return nil, err
		}
		w, err := journal.OpenWAL(journal.Options{Dir: opts.DataDir})
		if err != nil {
			return nil, fmt.Errorf("core: open journal: %w", err)
		}
		jnl = w
	}
	d := dispatch.New(opts.dispatchConfig(jnl))
	if opts.Obs != nil {
		hydra.RegisterMetrics(opts.Obs)
		worker.RegisterMetrics(opts.Obs)
		journal.RegisterMetrics(opts.Obs)
	}
	if _, err := d.Start(); err != nil {
		return nil, err
	}
	e := &Engine{d: d}
	if err := e.startLocalWorkers(opts); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// refuseFederatedDir rejects a data directory that a federated engine wrote:
// it journaled under router/ and inst<i>/, never at the top level, so one
// dispatcher opening it would start empty and drop that run's unfinished
// jobs without a word.
func refuseFederatedDir(dir string) error {
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) > 0 {
		return nil
	}
	for _, sub := range []string{"router", "inst0"} {
		if fi, err := os.Stat(filepath.Join(dir, sub)); err == nil && fi.IsDir() {
			return fmt.Errorf("core: data directory %s was written by a federated run (journals under router/ and inst<i>/), which one dispatcher cannot recover", dir)
		}
	}
	return nil
}

// startLocalWorkers starts Options.LocalWorkers in-process workers and waits
// for them to register so the first batch does not race registration.
func (e *Engine) startLocalWorkers(opts Options) error {
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	cores := opts.CoresPerWorker
	if cores <= 0 {
		cores = 1
	}
	for i := 0; i < opts.LocalWorkers; i++ {
		// A local worker shares the dispatcher's address space, so it talks
		// over an in-memory pipe; a loopback socket would add two trips
		// through the kernel per frame. Its coordinate's first plane, i%8, is
		// only its shard key.
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
		e.d.ServeConn(served)
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go func(w *worker.Worker) {
			defer e.wg.Done()
			w.Run(ctx)
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.d.Workers() < opts.LocalWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: only %d/%d local workers registered", e.d.Workers(), opts.LocalWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// dispatchConfig is the dispatcher configuration these options describe,
// journaling to jnl. Spilled specs live beside the journal they are
// referenced from, under DataDir, so recovery after a restart finds both or
// neither; no DataDir keeps the dispatcher's ephemeral temp-dir store.
func (opts Options) dispatchConfig(jnl journal.Journal) dispatch.Config {
	spill := ""
	if opts.DataDir != "" {
		spill = filepath.Join(opts.DataDir, "spill")
	}
	return dispatch.Config{
		Addr:             opts.ListenAddr,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		MaxJobRetries:    opts.MaxJobRetries,
		RetryBackoff:     opts.RetryBackoff,
		RetryBackoffMax:  opts.RetryBackoffMax,
		Shards:           opts.Shards,
		JobTimeout:       opts.JobTimeout,
		OnOutput:         opts.OnOutput,
		OnEvent:          opts.OnEvent,
		Obs:              opts.Obs,
		Journal:          jnl,
		HotQueueJobs:     opts.HotQueueJobs,
		SpillDir:         spill,
	}
}

// Addr returns the dispatcher endpoint for external workers.
func (e *Engine) Addr() string { return e.d.Addr() }

// Dispatcher exposes the underlying dispatcher for advanced composition.
func (e *Engine) Dispatcher() *dispatch.Dispatcher { return e.d }

// Workers returns the engine's local worker agents (for fault injection in
// tests and experiments).
func (e *Engine) Workers() []*worker.Worker { return e.workers }

// RecoveredJobs returns the handles of jobs rebuilt from the journal at
// startup (empty without a journal). A restarted engine waits on them to
// finish the workload it inherited.
func (e *Engine) RecoveredJobs() []*dispatch.Handle { return e.d.RecoveredJobs() }

// RecoveryError reports a journal replay failure during startup; recovery is
// best-effort past the error point (see dispatch.RecoveryError).
func (e *Engine) RecoveryError() error { return e.d.RecoveryError() }

// Health is the dispatcher's dispatch.Health. It backs /healthz.
func (e *Engine) Health() error { return e.d.Health() }

// Submit enqueues one job.
func (e *Engine) Submit(job dispatch.Job) (*dispatch.Handle, error) { return e.d.Submit(job) }

// SubmitBatch enqueues a group of jobs in one dispatcher pass; see
// dispatch.SubmitBatch.
func (e *Engine) SubmitBatch(jobs []dispatch.Job) ([]*dispatch.Handle, error) {
	return e.d.SubmitBatch(jobs)
}

// StageFile pushes a file to every worker's local cache.
func (e *Engine) StageFile(name string, data []byte) { e.d.StageFile(name, data) }

// Close shuts the engine down without draining.
func (e *Engine) Close() {
	e.d.Close()
	e.cancel()
	e.wg.Wait()
}

// WorkerTotal is the number of workers registered right now.
func (e *Engine) WorkerTotal() int { return e.d.Workers() }

// BatchReport summarizes one batch execution.
type BatchReport struct {
	Results []dispatch.JobResult
	// Records is a bounded sample: the dispatcher's most recently completed
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
			report.Allocation = e.d.PeakWorkers()
			return report, ctx.Err()
		}
		res, _ := h.TryResult()
		report.Results = append(report.Results, res)
	}
	report.Elapsed = time.Since(start)
	report.Records = e.d.Records()
	// The high-water count, read when the batch ends: external workers
	// register after submission, so a live count taken before the first job
	// ran would report an allocation of 0.
	report.Allocation = e.d.PeakWorkers()
	report.Summary = e.d.Tally().Summary(report.Allocation)
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
