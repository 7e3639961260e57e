// Command swiftrun executes a mini-Swift script against a JETS engine — the
// paper's MPICH/Coasters form (§5.2): the script's app calls become JETS
// jobs; apps annotated "mpi <n>" are decomposed into proxy launches and
// wired up over sockets.
//
// Usage:
//
//	swiftrun -workers 8 script.swift
//	swiftrun -listen 0.0.0.0:7001 -workers 0 script.swift   # external workers
//
// App commands run as real subprocesses. With -listen, jets-worker processes
// started with -dispatcher ADDR join the local workers (or replace them,
// with -workers 0).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"jets/internal/core"
	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/obs/obshttp"
	"jets/internal/proto"
	"jets/internal/swiftlang"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "swiftrun:", err)
		os.Exit(1)
	}
}

// argList collects repeatable -arg name=value flags.
type argList map[string]string

func (a argList) String() string { return fmt.Sprint(map[string]string(a)) }

func (a argList) Set(s string) error {
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return fmt.Errorf("want name=value, got %q", s)
	}
	a[s[:i]] = s[i+1:]
	return nil
}

// nullRunner accepts every command and exits 0 immediately: the measurement
// configuration for script-side throughput runs (the paper's "sleep 0"
// workload without process-spawn noise).
type nullRunner struct{}

func (nullRunner) Run(ctx context.Context, task *proto.Task, env []string, stdout io.Writer) (int, error) {
	return 0, nil
}

func run() error {
	workers := flag.Int("workers", 4, "local worker agents")
	listen := flag.String("listen", "", "dispatcher listen address for external workers (e.g. 0.0.0.0:7001; empty binds an ephemeral loopback port)")
	workdir := flag.String("workdir", "swift-work", "directory for auto-mapped files")
	timeout := flag.Duration("timeout", time.Hour, "script wall limit")
	batch := flag.Int("batch", 0, "max invocations per batched engine submit (0 uses the default)")
	nullExec := flag.Bool("null-exec", false, "run app commands as in-process no-ops (throughput measurement)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /healthz on this address (empty disables)")
	args := argList{}
	flag.Var(args, "arg", "script argument name=value (repeatable), read with arg()")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: swiftrun [flags] script.swift")
	}
	if *workers <= 0 && *listen == "" {
		return fmt.Errorf("usage: -workers %d needs -listen, or no worker can join", *workers)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	prog, err := swiftlang.Parse(string(src))
	if err != nil {
		return err
	}

	exec := swiftlang.NewJETSExecutor()
	exec.BatchMax = *batch
	var runner hydra.Runner = hydra.ExecRunner{}
	if *nullExec {
		runner = nullRunner{}
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		swiftlang.RegisterMetrics(reg)
	}
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: *workers,
		ListenAddr:   *listen,
		Runner:       runner,
		OnOutput:     exec.OutputSink,
		Obs:          reg,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	exec.Bind(eng)
	if *listen != "" {
		fmt.Printf("swiftrun: dispatcher on %s, %d local workers\n", eng.Addr(), *workers)
	}
	if *metricsAddr != "" {
		srv, err := obshttp.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		srv.SetHealth(eng.Health)
		fmt.Printf("swiftrun: metrics on http://%s/metrics (also /healthz)\n", srv.Addr())
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	ctx, cancelT := context.WithTimeout(ctx, *timeout)
	defer cancelT()

	start := time.Now()
	if err := swiftlang.Run(ctx, prog, swiftlang.Config{
		Executor: exec,
		WorkDir:  *workdir,
		Stdout:   os.Stdout,
		Args:     args,
	}); err != nil {
		return err
	}
	st := eng.Dispatcher().Stats()
	fmt.Printf("swiftrun: %d jobs (%d tasks) in %v\n",
		st.JobsCompleted, st.TasksDispatched, time.Since(start).Round(time.Millisecond))
	return nil
}
