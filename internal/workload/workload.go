// Package workload generates the benchmark task batches of the paper's
// evaluation: no-op sequential tasks (Fig. 6) and the barrier-sleep-barrier
// MPI app (Figs. 7, 9, 15). It also registers the corresponding in-process
// applications with a FuncRunner.
package workload

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/mpi"
)

// App names registered by RegisterApps.
const (
	NoopApp    = "noop"         // exits immediately (Fig. 6 sequential test)
	BarrierApp = "barrier-wait" // barrier, sleep <ms>, barrier (Figs. 7/9)
	SyntheApp  = "synthetic"    // barrier, sleep, write rank file, barrier (Fig. 15)
)

// RegisterApps installs the synthetic benchmark applications.
func RegisterApps(runner *hydra.FuncRunner) {
	runner.Register(NoopApp, func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	runner.Register(BarrierApp, barrierWait)
	runner.Register(SyntheApp, synthetic)
}

// barrierWait is the paper's benchmark MPI app (§6.1.2): "starts up,
// performs an MPI barrier on all processes, waits for a given time, performs
// a second MPI barrier, and exits." Arg 0 is the wait in milliseconds.
func barrierWait(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
	return barrierApp(ctx, BarrierApp, args, env, stdout, false)
}

// synthetic is the §6.2.1 task: barrier, sleep, each process "creates and/or
// writes its MPI rank to a single output file", barrier, exit. The write is
// reported on stdout so the harness can observe it without a shared
// filesystem.
func synthetic(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
	return barrierApp(ctx, SyntheApp, args, env, stdout, true)
}

// barrierApp runs barrier, wait, barrier for the app called name, writing the
// rank between the two when writeRank is set. Whatever fails is reported on
// stdout, which is all a failed gang job's output has to say why.
func barrierApp(ctx context.Context, name string, args []string, env map[string]string, stdout io.Writer, writeRank bool) int {
	waitMS := 1000
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 {
			fmt.Fprintf(stdout, "%s: bad duration %q\n", name, args[0])
			return 2
		}
		waitMS = v
	}
	comm, err := mpi.InitEnvFrom(env)
	if err != nil {
		fmt.Fprintf(stdout, "%s: init: %v\n", name, err)
		return 1
	}
	defer comm.Close()
	if err := comm.Barrier(); err != nil {
		fmt.Fprintf(stdout, "%s: barrier: %v\n", name, err)
		return 1
	}
	if !wait(ctx, waitMS) {
		return 1
	}
	if writeRank {
		fmt.Fprintf(stdout, "rank %d\n", comm.Rank())
	}
	if err := comm.Barrier(); err != nil {
		fmt.Fprintf(stdout, "%s: barrier: %v\n", name, err)
		return 1
	}
	return 0
}

// wait sleeps ms milliseconds and reports false if ctx ended first. The
// launch-rate workloads pass 0, which costs no timer and no park.
func wait(ctx context.Context, ms int) bool {
	if ms == 0 {
		return ctx.Err() == nil
	}
	select {
	case <-time.After(time.Duration(ms) * time.Millisecond):
		return true
	case <-ctx.Done():
		return false
	}
}

// SequentialBatch builds n no-op sequential jobs (Fig. 6 workload).
func SequentialBatch(n int) []dispatch.Job {
	jobs := make([]dispatch.Job, n)
	for i := range jobs {
		jobs[i] = dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("noop%d", i), NProcs: 1, Cmd: NoopApp},
			Type: dispatch.Sequential,
		}
	}
	return jobs
}

// MPIBatch builds count barrier-wait jobs of nprocs processes each, with the
// given wait duration (the Figs. 7/9 workload).
func MPIBatch(count, nprocs int, wait time.Duration) []dispatch.Job {
	jobs := make([]dispatch.Job, count)
	ms := fmt.Sprint(int(wait / time.Millisecond))
	for i := range jobs {
		jobs[i] = dispatch.Job{
			Spec: hydra.JobSpec{
				JobID:  fmt.Sprintf("mpi%dx%d-%d", nprocs, int(wait/time.Millisecond), i),
				NProcs: nprocs,
				Cmd:    BarrierApp,
				Args:   []string{ms},
			},
			Type: dispatch.MPI,
		}
	}
	return jobs
}
