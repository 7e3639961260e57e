package hydra

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"jets/internal/pmi"
	"jets/internal/proto"
)

// This file is the hydra_pmi_proxy equivalent: the program a JETS worker
// executes for one rank of an MPI job. The proxy is "given sufficient
// environment and arguments to connect back to mpiexec" (paper §4.2); it
// prepares the PMI environment and launches the user executable, forwarding
// its standard output back up the chain.

// Runner launches the user process of one proxy. Two implementations are
// provided: ExecRunner forks a real OS process, and FuncRunner dispatches to
// a registered in-process application function (used by tests, examples, and
// benchmarks, where forking thousands of processes would measure the host
// machine rather than the system design).
type Runner interface {
	// Run executes the task's user command with the merged environment and
	// returns its exit code. Output must be written to stdout as it is
	// produced.
	Run(ctx context.Context, task *proto.Task, env []string, stdout io.Writer) (int, error)
}

// AppFunc is an in-process stand-in for a user executable: argv-style
// arguments, environment map (read-only; nil when the environment is empty),
// and a stdout stream. The returned int is the exit code.
type AppFunc func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int

// FuncRunner runs registered AppFuncs by command name.
type FuncRunner struct {
	mu   sync.RWMutex
	apps map[string]AppFunc
}

// NewFuncRunner creates an empty in-process runner.
func NewFuncRunner() *FuncRunner {
	return &FuncRunner{apps: make(map[string]AppFunc)}
}

// Register installs fn under the given command name, replacing any previous
// registration.
func (r *FuncRunner) Register(name string, fn AppFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[name] = fn
}

// Names returns the registered command names, sorted.
func (r *FuncRunner) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.apps))
	for n := range r.apps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run implements Runner.
func (r *FuncRunner) Run(ctx context.Context, task *proto.Task, env []string, stdout io.Writer) (int, error) {
	r.mu.RLock()
	fn, ok := r.apps[task.Cmd]
	r.mu.RUnlock()
	if !ok {
		return -1, fmt.Errorf("hydra: no registered app %q", task.Cmd)
	}
	// An empty environment is a nil map: an AppFunc only reads it, and
	// reading a nil map is reading an empty one.
	var envMap map[string]string
	if len(env) > 0 {
		envMap = make(map[string]string, len(env))
	}
	for _, kv := range env {
		if i := strings.IndexByte(kv, '='); i >= 0 {
			envMap[kv[:i]] = kv[i+1:]
		}
	}
	return fn(ctx, task.Args, envMap, stdout), nil
}

// ExecRunner forks the user command as a real OS process.
type ExecRunner struct{}

// Run implements Runner via os/exec.
func (ExecRunner) Run(ctx context.Context, task *proto.Task, env []string, stdout io.Writer) (int, error) {
	cmd := exec.CommandContext(ctx, task.Cmd, task.Args...)
	cmd.Env = env
	cmd.Dir = task.Dir
	cmd.Stdout = stdout
	cmd.Stderr = stdout
	err := cmd.Run()
	if err == nil {
		return 0, nil
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), nil
	}
	return -1, err
}

// RunProxy executes one rank's proxy: build the PMI bootstrap environment,
// run the user process, and return the task result. It corresponds to the
// Hydra proxy's lifecycle in Fig. 4 steps 4-6.
func RunProxy(ctx context.Context, task *proto.Task, runner Runner, stdout io.Writer) proto.Result {
	start := time.Now()
	res := proto.Result{TaskID: task.TaskID, JobID: task.JobID}

	env := append([]string(nil), task.Env...)
	if task.Control != "" {
		env = append(env, pmi.Env(task.Control, task.Rank, task.Size, task.KVS)...)
	}

	if task.WallLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, task.WallLimit)
		defer cancel()
	}

	code, err := runner.Run(ctx, task, env, stdout)
	res.ExitCode = code
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = err.Error()
		if res.ExitCode == 0 {
			res.ExitCode = -1
		}
	} else if ctxErr := ctx.Err(); ctxErr != nil && code != 0 {
		res.Err = ctxErr.Error()
	}
	return res
}
