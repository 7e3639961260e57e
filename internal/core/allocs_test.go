package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"jets/internal/dispatch"
	"jets/internal/hydra"
)

// Per-job allocation budgets: the most heap allocations one sequential job
// may cost end to end — Submit, the task frame, the worker, the result frame
// and OnDone, on both sides of the in-memory pipe between the dispatcher and
// each local worker. DESIGN.md "Per-job
// allocation budget" lists what the counts are made of.
const (
	seqJobAllocBudget     = 9  // hot path: 8 measured
	spilledJobAllocBudget = 12 // plus journal and spill round trip: 11 measured
)

// TestSequentialJobAllocs pins the per-job allocation count of the
// dispatcher <-> worker path. A count, unlike a rate, does not move with the
// machine's load, so the bound can be tight: a change that adds an
// allocation per job anywhere on the path fails here.
func TestSequentialJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	if testing.Short() {
		t.Skip("runs 20,000 jobs")
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	eng, err := NewEngine(Options{LocalWorkers: 8, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A closed loop, 64 jobs outstanding, one Submit per job.
	const window = 64
	closedLoop := func(eng *Engine, jobs []dispatch.Job, done chan bool, onDone func(dispatch.JobResult)) {
		for i := range jobs {
			if i >= window {
				checkDone(t, <-done)
			}
			h, err := eng.Submit(jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			h.OnDone(onDone)
		}
		for i := 0; i < min(len(jobs), window); i++ {
			checkDone(t, <-done)
		}
	}
	perJob := jobAllocs(t, eng, 20000, closedLoop)
	t.Logf("%.2f allocations per job (budget %d)", perJob, seqJobAllocBudget)
	if perJob > seqJobAllocBudget {
		t.Errorf("%.2f allocations per job, budget %d", perJob, seqJobAllocBudget)
	}
}

// TestSpilledJobAllocs is the durable path's count: a burst submitted in
// batches of 256 to an engine that journals every transition and keeps 64
// jobs hot per shard, so nearly every job is spilled and read back.
func TestSpilledJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	if testing.Short() {
		t.Skip("runs 20,480 jobs")
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	eng, err := NewEngine(Options{LocalWorkers: 8, Runner: runner, DataDir: t.TempDir(), HotQueueJobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	burst := func(eng *Engine, jobs []dispatch.Job, done chan bool, onDone func(dispatch.JobResult)) {
		for lo := 0; lo < len(jobs); lo += 256 {
			hs, err := eng.SubmitBatch(jobs[lo:min(lo+256, len(jobs))])
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				h.OnDone(onDone)
			}
		}
		for range jobs {
			checkDone(t, <-done)
		}
	}
	spilled0 := eng.Dispatcher().Stats().JobsSpilled
	perJob := jobAllocs(t, eng, 20480, burst)
	if spilled := eng.Dispatcher().Stats().JobsSpilled - spilled0; spilled < 20000 {
		t.Fatalf("%d of 20,480 jobs spilled: the test no longer exercises the spill path", spilled)
	}
	t.Logf("%.2f allocations per job (budget %d)", perJob, spilledJobAllocBudget)
	if perJob > spilledJobAllocBudget {
		t.Errorf("%.2f allocations per job, budget %d", perJob, spilledJobAllocBudget)
	}
}

// jobAllocs warms eng up with 2,048 noop jobs, then runs n more through run
// and returns the process's mallocs per job over the second run. The jobs
// and the completion callback are made before the count starts, so what is
// counted is the engine's work alone.
func jobAllocs(t *testing.T, eng *Engine, n int, run func(*Engine, []dispatch.Job, chan bool, func(dispatch.JobResult))) float64 {
	t.Helper()
	done := make(chan bool, n)
	onDone := func(r dispatch.JobResult) { done <- r.Failed }
	jobs := func(prefix string, n int) []dispatch.Job {
		js := make([]dispatch.Job, n)
		for i := range js {
			js[i] = dispatch.Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("%s%d", prefix, i), NProcs: 1, Cmd: "noop"}}
		}
		return js
	}
	run(eng, jobs("warm", 2048), done, onDone)
	measured := jobs("job", n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(eng, measured, done, onDone)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func checkDone(t *testing.T, failed bool) {
	t.Helper()
	if failed {
		t.Fatal("a noop job failed")
	}
}
