package swiftlang

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/core"
)

// JETSExecutor submits app invocations to a JETS engine — the
// MPICH/Coasters form of §5.2: Swift produces the task, JETS decomposes and
// launches it. Asynchronous submissions (ExecuteAsync, used by the compiled
// runtime) are coalesced into dispatcher batches; see batch.go.
type JETSExecutor struct {
	// BatchMax caps how many pending async submissions accumulate before a
	// forced flush; BatchDelay bounds how long the first pending submission
	// waits for company. Zero values select the package defaults.
	BatchMax   int
	BatchDelay time.Duration

	eng *core.Engine
	seq atomic.Int64

	mu      sync.Mutex
	stdouts map[string]*redirect // jobID -> stdout=@ target of a live job
	dirs    map[string]struct{}  // output directories already made (ensureDir)

	bmu     sync.Mutex
	pending []pendingSubmit
	timer   *time.Timer
}

// NewJETSExecutor wraps an engine. Wire OutputSink into the engine's
// OnOutput option to make stdout=@file redirection functional:
//
//	exec := swiftlang.NewJETSExecutor()
//	eng, _ := core.NewEngine(core.Options{..., OnOutput: exec.OutputSink})
//	exec.Bind(eng)
func NewJETSExecutor() *JETSExecutor {
	return &JETSExecutor{stdouts: map[string]*redirect{}}
}

// Bind attaches the engine (two-phase construction because the engine needs
// the executor's OutputSink at creation).
func (x *JETSExecutor) Bind(eng *core.Engine) { x.eng = eng }

// BatchLimit implements WindowSizer: the size at which pending async
// submissions are flushed as one dispatcher batch.
func (x *JETSExecutor) BatchLimit() int {
	if x.BatchMax > 0 {
		return x.BatchMax
	}
	return defaultBatchMax
}

// WorkerSlots implements WindowSizer: the workers registered with the bound
// engine right now (0 before Bind, or while external workers are yet to
// attach).
func (x *JETSExecutor) WorkerSlots() int {
	if x.eng == nil {
		return 0
	}
	return x.eng.WorkerTotal()
}

// OutputSink routes task output chunks into any registered stdout redirect
// file, reproducing the application -> proxy -> mpiexec -> JETS -> file
// path.
func (x *JETSExecutor) OutputSink(taskID, stream string, data []byte) {
	jobID := taskID
	if i := strings.IndexByte(taskID, '/'); i >= 0 {
		jobID = taskID[:i]
	}
	x.mu.Lock()
	rd := x.stdouts[jobID]
	if rd == nil {
		x.mu.Unlock()
		return
	}
	if rd.f == nil {
		// First chunk: buildJob left the file created and closed.
		f, err := os.OpenFile(rd.path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			x.mu.Unlock()
			swiftRedirectDrops.Add(int64(len(data)))
			return
		}
		rd.f = f
	}
	f := rd.f
	x.mu.Unlock()
	if n, err := f.Write(data); err != nil {
		swiftRedirectDrops.Add(int64(len(data) - n))
	}
}

// Execute implements Executor.
func (x *JETSExecutor) Execute(ctx context.Context, inv AppInvocation) error {
	if x.eng == nil {
		return fmt.Errorf("swift: JETS executor not bound to an engine")
	}
	job, rd, err := x.buildJob(inv)
	if err != nil {
		return err
	}
	jobID := job.Spec.JobID
	defer x.releaseStdout(jobID, rd)
	swiftTasksSubmitted.Add(1)
	h, err := x.eng.Submit(job)
	if err != nil {
		return err
	}
	select {
	case <-h.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	res, _ := h.TryResult()
	if res.Failed {
		return fmt.Errorf("job %s failed: %s", jobID, res.Err)
	}
	return nil
}

// FuncExecutor runs invocations as registered Go functions, for tests and
// dry runs of scripts.
type FuncExecutor struct {
	mu    sync.Mutex
	fns   map[string]func(ctx context.Context, inv AppInvocation) error
	calls []AppInvocation
}

// NewFuncExecutor creates an empty function executor.
func NewFuncExecutor() *FuncExecutor {
	return &FuncExecutor{fns: map[string]func(context.Context, AppInvocation) error{}}
}

// Register installs fn for invocations whose first command token equals cmd.
func (x *FuncExecutor) Register(cmd string, fn func(ctx context.Context, inv AppInvocation) error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.fns[cmd] = fn
}

// Calls returns a copy of every invocation executed, in completion order.
func (x *FuncExecutor) Calls() []AppInvocation {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]AppInvocation(nil), x.calls...)
}

// Execute implements Executor.
func (x *FuncExecutor) Execute(ctx context.Context, inv AppInvocation) error {
	x.mu.Lock()
	fn, ok := x.fns[inv.Tokens[0]]
	x.mu.Unlock()
	if !ok {
		return fmt.Errorf("no function registered for command %q", inv.Tokens[0])
	}
	if err := fn(ctx, inv); err != nil {
		return err
	}
	x.mu.Lock()
	x.calls = append(x.calls, inv)
	x.mu.Unlock()
	return nil
}
