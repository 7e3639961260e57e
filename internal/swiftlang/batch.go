package swiftlang

// Batched submission. The compiled runtime hands invocations to an
// AsyncExecutor; the JETS-backed implementation coalesces them into grouped
// dispatcher submits (core.Engine.SubmitBatch) riding the wire protocol's
// write coalescing, with a shared completion demux (dispatch.Handle.OnDone)
// instead of one goroutine parked per job.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jets/internal/dataflow"
	"jets/internal/dispatch"
	"jets/internal/hydra"
)

// AsyncExecutor is an Executor with a non-blocking submission path. done is
// called when the invocation completes, from any goroutine and under
// whatever locks the executor holds: it sets the output futures, which only
// moves waiting statements to the run's ready list, and never evaluates a
// statement or calls ExecuteAsync itself. The compiled runtime tolerates late
// calls (a canceled run abandons its waits first, as the interpreter
// abandons Done() waits).
type AsyncExecutor interface {
	Executor
	ExecuteAsync(ctx context.Context, inv AppInvocation, done func(error))
}

// Flusher is implemented by executors that buffer submissions; the compiled
// runtime flushes once the whole program has been walked.
type Flusher interface {
	Flush()
}

// WindowSizer is implemented by executors that know how much submitted work
// keeps them busy; the compiled runtime sizes its foreach window from it
// (foreachWindow) instead of taking a setting.
type WindowSizer interface {
	BatchLimit() int  // submissions coalesced into one batch
	WorkerSlots() int // tasks the executor can run at once
}

// goAsync adapts a synchronous Executor with a goroutine per call — the
// compiled runtime's fallback, cost-equivalent to the interpreter's
// per-statement goroutine.
type goAsync struct {
	ex  Executor
	eng *dataflow.Engine
}

func (g goAsync) Execute(ctx context.Context, inv AppInvocation) error {
	return g.ex.Execute(ctx, inv)
}

func (g goAsync) ExecuteAsync(ctx context.Context, inv AppInvocation, done func(error)) {
	g.eng.Go(func(ctx context.Context) error {
		done(g.ex.Execute(ctx, inv))
		return nil
	})
}

// Batching defaults; see the corresponding JETSExecutor fields.
const (
	defaultBatchMax   = 256
	defaultBatchDelay = 2 * time.Millisecond
)

type pendingSubmit struct {
	job  dispatch.Job
	done func(error)
	rd   *redirect // stdout=@ target registered at enqueue, or nil
}

// ExecuteAsync implements AsyncExecutor: the invocation is buffered and
// submitted with the next batch — when the buffer reaches BatchMax or the
// flush timer (BatchDelay after the first pending entry) fires, whichever
// comes first.
func (x *JETSExecutor) ExecuteAsync(ctx context.Context, inv AppInvocation, done func(error)) {
	if x.eng == nil {
		done(fmt.Errorf("swift: JETS executor not bound to an engine"))
		return
	}
	job, rd, err := x.buildJob(inv)
	if err != nil {
		done(err)
		return
	}
	swiftTasksSubmitted.Add(1)
	x.bmu.Lock()
	x.pending = append(x.pending, pendingSubmit{job: job, done: done, rd: rd})
	n := len(x.pending)
	if n == 1 {
		delay := x.BatchDelay
		if delay <= 0 {
			delay = defaultBatchDelay
		}
		x.timer = time.AfterFunc(delay, x.Flush)
	}
	x.bmu.Unlock()
	if n >= x.BatchLimit() {
		x.Flush()
	}
}

// Flush submits every buffered invocation as one dispatcher batch and wires
// each handle's completion callback.
func (x *JETSExecutor) Flush() {
	x.bmu.Lock()
	pend := x.pending
	x.pending = nil
	if x.timer != nil {
		x.timer.Stop()
		x.timer = nil
	}
	x.bmu.Unlock()
	if len(pend) == 0 {
		return
	}
	swiftBatchSize.Observe(time.Duration(len(pend)) * time.Second)
	jobs := make([]dispatch.Job, len(pend))
	for i := range pend {
		jobs[i] = pend[i].job
	}
	handles, err := x.eng.SubmitBatch(jobs)
	if err != nil {
		for i := range pend {
			x.releaseStdout(jobs[i].Spec.JobID, pend[i].rd)
			pend[i].done(err)
		}
		return
	}
	for i, h := range handles {
		// The callback lives as long as the job: it keeps the two fields it
		// needs, not the pendingSubmit and its copy of the dispatch.Job.
		done, rd := pend[i].done, pend[i].rd
		h.OnDone(func(res dispatch.JobResult) {
			x.releaseStdout(res.JobID, rd)
			if res.Failed {
				done(fmt.Errorf("job %s failed: %s", res.JobID, res.Err))
				return
			}
			done(nil)
		})
	}
}

// redirect is one job's stdout=@ target. The file is opened by the job's
// first output chunk and closed at completion, so open descriptors are bounded
// by the tasks that are running and have printed something, not by how many
// invocations are queued.
type redirect struct {
	path string
	f    *os.File // guarded by JETSExecutor.mu
}

// buildJob resolves one invocation into a dispatcher job, creating the
// output directories and — so that an app which prints nothing still leaves
// an empty file — the stdout redirect target, which it registers by path.
func (x *JETSExecutor) buildJob(inv AppInvocation) (dispatch.Job, *redirect, error) {
	jobID := fmt.Sprintf("swift-%s-%d", inv.App, x.seq.Add(1))
	var rd *redirect
	if inv.StdoutFile != "" {
		if err := x.ensureDir(filepath.Dir(inv.StdoutFile)); err != nil {
			return dispatch.Job{}, nil, err
		}
		f, err := os.Create(inv.StdoutFile)
		if err != nil {
			return dispatch.Job{}, nil, err
		}
		if err := f.Close(); err != nil {
			return dispatch.Job{}, nil, err
		}
		rd = &redirect{path: inv.StdoutFile}
		x.mu.Lock()
		x.stdouts[jobID] = rd
		x.mu.Unlock()
	}
	for _, out := range inv.OutFiles {
		if err := x.ensureDir(filepath.Dir(out)); err != nil {
			x.releaseStdout(jobID, rd)
			return dispatch.Job{}, nil, err
		}
	}
	job := dispatch.Job{
		Spec: hydra.JobSpec{
			JobID:  jobID,
			NProcs: 1,
			Cmd:    inv.Tokens[0],
			Args:   inv.Tokens[1:],
		},
		Type: dispatch.Sequential,
	}
	if inv.NProcs > 0 {
		job.Type = dispatch.MPI
		job.Spec.NProcs = inv.NProcs
	}
	return job, rd, nil
}

// mkdirAll is os.MkdirAll, replaceable so a test can count the calls.
var mkdirAll = os.MkdirAll

// maxKnownDirs bounds the set of directories ensureDir remembers.
const maxKnownDirs = 1024

// ensureDir creates dir unless this executor already has: MkdirAll costs a
// stat system call even when the directory exists, and a script's outputs
// share a handful of directories across all of its jobs.
func (x *JETSExecutor) ensureDir(dir string) error {
	if dir == "." || dir == "" {
		return nil
	}
	x.mu.Lock()
	_, known := x.dirs[dir]
	x.mu.Unlock()
	if known {
		return nil
	}
	if err := mkdirAll(dir, 0o755); err != nil {
		return err
	}
	x.mu.Lock()
	if x.dirs == nil || len(x.dirs) >= maxKnownDirs {
		x.dirs = map[string]struct{}{}
	}
	x.dirs[dir] = struct{}{}
	x.mu.Unlock()
	return nil
}

// releaseStdout unregisters a job's stdout redirect and closes its file if
// output ever opened it.
func (x *JETSExecutor) releaseStdout(jobID string, rd *redirect) {
	if rd == nil {
		return
	}
	x.mu.Lock()
	delete(x.stdouts, jobID)
	f := rd.f
	rd.f = nil
	x.mu.Unlock()
	if f != nil {
		f.Close()
	}
}
