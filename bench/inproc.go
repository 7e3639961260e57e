package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/workload"
)

// Workload names (fixed: results files and BENCHMARK.json are keyed by them).
const (
	wSeqMem      = "seq-mem"
	wSeqDurable  = "seq-durable"
	wMPIGang     = "mpi-gang"
	wPilotExec   = "pilot-exec"
	wSwiftScript = "swift-script"
)

// roundResult is what one child process reports for one round.
type roundResult struct {
	// Metrics holds the end-to-end metrics of an untraced round, or the
	// per-layer metrics of a traced round / probe pass.
	Metrics map[string]float64 `json:"metrics"`
	// Setups are the set-up times measured in this round, the real one first.
	Setups    []float64 `json:"setup_samples_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// LatencySamples and TailPct say what job_latency_p99_ms was computed
	// from: the tail is the highest percentile with >= 10 samples beyond it.
	LatencySamples int     `json:"latency_samples,omitempty"`
	TailPct        float64 `json:"tail_percentile,omitempty"`
	// Exact are counts that must repeat exactly from round to round.
	Exact map[string]float64 `json:"exact,omitempty"`
	// Problems are failed output checks; any entry makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
}

func (r *roundResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// inprocSpec describes one in-process workload: the generated jobs, how the
// single submit goroutine offers them, and the engine they run on.
type inprocSpec struct {
	n      int
	job    func(i int) dispatch.Job
	window int // jobs outstanding in the closed loop; 0 submits the whole batch at once
	chunk  int // SubmitBatch chunk size; 0 uses one Submit per job
	opts   core.Options
}

// engineDefaults are cmd/jets's defaults with in-process workers: 8 local
// workers over loopback TCP, coalesced writes, GOMAXPROCS-derived shards.
func engineDefaults() core.Options {
	runner := hydra.NewFuncRunner()
	workload.RegisterApps(runner)
	return core.Options{LocalWorkers: 8, Runner: runner, WriteCoalesce: 16}
}

func seqJob(id string) dispatch.Job {
	return dispatch.Job{
		Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: workload.NoopApp},
		Type: dispatch.Sequential,
	}
}

// buildInproc generates a workload's inputs from the seed. dir is a fresh
// directory for whatever the engine persists.
func buildInproc(name string, seed int64, sz sizes, dir string, barrierPath string) (inprocSpec, error) {
	sp := inprocSpec{opts: engineDefaults()}
	switch name {
	case wSeqMem:
		ids := jobIDs(seed, sz.SeqMem)
		sp.n, sp.window = len(ids), 64
		sp.job = func(i int) dispatch.Job { return seqJob(ids[i]) }
	case wSeqDurable:
		ids := jobIDs(seed, sz.SeqDurable)
		sp.n, sp.chunk = len(ids), durableChunk
		sp.job = func(i int) dispatch.Job { return seqJob(ids[i]) }
		sp.opts.DataDir = filepath.Join(dir, "wal")
		sp.opts.HotQueueJobs = 64
	case wMPIGang:
		ids, gs := jobIDs(seed, sz.MPIGang), gangSizes(seed, sz.MPIGang)
		args := []string{"0"}
		sp.n, sp.window = len(ids), 4
		sp.job = func(i int) dispatch.Job {
			return dispatch.Job{
				Spec: hydra.JobSpec{JobID: ids[i], NProcs: gs[i], Cmd: workload.BarrierApp, Args: args},
				Type: dispatch.MPI,
			}
		}
	case wPilotExec:
		// The in-process twin of pilot-exec, used only by the traced run:
		// the same job file on 2 local workers that fork real processes, so
		// the runner wrapper can time the exec the real binaries hide.
		jobs, err := core.ParseInput(strings.NewReader(pilotJobFile(seed, sz.PilotSeq, sz.PilotMPI, barrierPath)))
		if err != nil {
			return sp, err
		}
		sp.n = len(jobs)
		sp.job = func(i int) dispatch.Job { return jobs[i] }
		sp.opts.LocalWorkers = 2
		sp.opts.Runner = hydra.ExecRunner{}
	default:
		return sp, fmt.Errorf("no in-process form of workload %q", name)
	}
	return sp, nil
}

// setupInproc is the set-up a user pays per batch: generate the inputs and
// start the engine until every worker has registered (NewEngine waits).
func setupInproc(name string, seed int64, sz sizes, dir, barrierPath string, tr *tracer) (inprocSpec, *core.Engine, time.Duration, error) {
	t0 := time.Now()
	sp, err := buildInproc(name, seed, sz, dir, barrierPath)
	if err != nil {
		return sp, nil, 0, err
	}
	if tr != nil {
		if err := tr.instrument(&sp.opts, sp.n); err != nil {
			return sp, nil, 0, err
		}
	}
	eng, err := core.NewEngine(sp.opts)
	if err != nil {
		return sp, nil, 0, err
	}
	return sp, eng, time.Since(t0), nil
}

// stuckAfter bounds how long a round waits for its last completion; jobs
// still missing then count as failed ("never completed").
const stuckAfter = 120 * time.Second

// runInproc is one round of an in-process workload: set-up, the timed loop,
// then the output checks (outside the timed region).
func runInproc(name string, seed int64, sz sizes, dir, barrierPath string, tr *tracer) (*roundResult, error) {
	sp, eng, setup, err := setupInproc(name, seed, sz, dir, barrierPath, tr)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
	}()
	res := &roundResult{Metrics: map[string]float64{}, Exact: map[string]float64{}, Setups: []float64{setup.Seconds()}}
	n := sp.n
	epoch := eng.Dispatcher().Epoch()
	if tr != nil {
		tr.begin(n, epoch)
	}

	submitAt := make([]time.Duration, n)
	latency := make([]int64, n)
	completions := make([]atomic.Int32, n)
	var failed, refused atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	var sem chan struct{}
	if sp.window > 0 {
		sem = make(chan struct{}, sp.window)
	}
	onDone := func(i int) func(dispatch.JobResult) {
		return func(r dispatch.JobResult) {
			now := time.Since(epoch)
			latency[i] = int64(now - submitAt[i])
			if tr != nil {
				tr.done[i] = now
			}
			if r.Failed {
				failed.Add(1)
			}
			completions[i].Add(1)
			if sem != nil {
				<-sem
			}
			wg.Done()
		}
	}
	refuse := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			refused.Add(1)
			if sem != nil {
				<-sem
			}
			wg.Done()
		}
	}

	cpu0, t0 := cpuTime(), time.Since(epoch)
	if sp.chunk > 0 {
		buf := make([]dispatch.Job, 0, sp.chunk)
		for lo := 0; lo < n; lo += sp.chunk {
			hi := min(lo+sp.chunk, n)
			buf = buf[:0]
			for i := lo; i < hi; i++ {
				buf = append(buf, sp.job(i))
			}
			start := time.Since(epoch)
			hs, err := eng.SubmitBatch(buf)
			end := time.Since(epoch)
			for i := lo; i < hi; i++ {
				submitAt[i] = start
			}
			if tr != nil {
				tr.submitted(lo, hi, start, end)
			}
			if err != nil {
				refuse(lo, hi)
				continue
			}
			for k, h := range hs {
				h.OnDone(onDone(lo + k))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if sem != nil {
				sem <- struct{}{}
			}
			job := sp.job(i)
			start := time.Since(epoch)
			submitAt[i] = start
			h, err := eng.Submit(job)
			if tr != nil {
				tr.submitted(i, i+1, start, time.Since(epoch))
			}
			if err != nil {
				refuse(i, i+1)
				continue
			}
			h.OnDone(onDone(i))
		}
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	stuck := false
	select {
	case <-finished:
	case <-time.After(stuckAfter):
		stuck = true
	}
	wall := time.Since(epoch) - t0
	cpu := cpuTime() - cpu0
	hwm, hwmErr := procStatusKiB("VmHWM")

	// Everything below is outside the timed region.
	missing := 0
	for i := range completions {
		switch c := completions[i].Load(); {
		case c == 0:
			missing++
		case c > 1:
			res.problemf("job %d completed %d times", i, c)
		}
	}
	missing -= int(refused.Load())
	res.Attempted = n
	res.Failed = int(failed.Load()+refused.Load()) + missing
	if stuck {
		res.problemf("%d jobs never completed within %v", missing, stuckAfter)
	}
	if res.Failed > 0 {
		res.problemf("%d of %d jobs failed, were refused or never completed", res.Failed, n)
	}
	d := eng.Dispatcher()
	st := d.Stats()
	if st.JobsCompleted != n {
		res.problemf("Stats().JobsCompleted = %d, want %d", st.JobsCompleted, n)
	}
	if hwmErr != nil {
		res.problemf("peak RSS: %v", hwmErr)
	}
	lat := summarizeLatency(latency)
	res.LatencySamples, res.TailPct = lat.Samples, lat.TailPct
	res.Metrics["jobs_per_s"] = float64(n-res.Failed) / wall.Seconds()
	res.Metrics["cpu_us_per_job"] = float64(cpu.Microseconds()) / float64(n)
	res.Metrics["peak_rss_mib"] = hwm / 1024
	res.Metrics["job_latency_p50_ms"] = lat.P50ms
	res.Metrics["job_latency_p99_ms"] = lat.TailMs
	dropped := d.DroppedEvents()

	closed = true
	eng.Close() // flushes the WAL and the dispatcher's buffered events
	layer := map[string]float64{
		"dispatch.steals":          float64(st.Steals),
		"dispatch.events_dropped":  float64(dropped),
		"dispatch.spilled_per_job": float64(st.JobsSpilled) / float64(n),
		"dispatch.spill_reads":     float64(st.SpillReads),
	}
	if sp.opts.DataDir != "" {
		checkDurable(res, layer, sp.opts.DataDir, n)
	}
	if tr != nil {
		tr.layerMetrics(layer, n)
		if dropped != 0 {
			res.problemf("%d trace events dropped: the trace is void", dropped)
		}
		if c := layer["trace.coverage_frac"]; c < 0.8 {
			res.problemf("trace.coverage_frac = %.3f < 0.8: a stage is missing from the budget", c)
		}
		// A traced round reports the per-layer metrics, plus its own rate
		// for the parent to price the tracing against an untraced round.
		layer["jobs_per_s"] = res.Metrics["jobs_per_s"]
		res.Metrics = layer
	}
	return res, nil
}

// checkDurable replays the round's WAL: no job may be left live, every ID
// must have exactly one Completed record, and the backlog must really have
// gone through the spill store. The record count per job is exact and is
// compared across rounds by the parent.
func checkDurable(res *roundResult, layer map[string]float64, dataDir string, n int) {
	var walBytes int64
	segs, _ := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			walBytes += fi.Size()
		}
	}
	wal, err := journal.OpenWAL(journal.Options{Dir: dataDir})
	if err != nil {
		res.problemf("reopen WAL: %v", err)
		return
	}
	defer wal.Close()
	submitted := make(map[string]int8, n)
	completedTwice, records := 0, 0
	t0 := time.Now()
	err = wal.Replay(func(r journal.Record) error {
		records++
		switch r.Kind {
		case journal.Submitted:
			submitted[r.JobID]++
		case journal.Completed:
			if submitted[r.JobID] < 0 {
				completedTwice++
			}
			submitted[r.JobID] = -1
		}
		return nil
	})
	replay := time.Since(t0)
	if err != nil {
		res.problemf("replay WAL: %v", err)
	}
	live := 0
	for _, v := range submitted {
		if v >= 0 {
			live++
		}
	}
	if live != 0 || completedTwice != 0 || len(submitted) != n {
		res.problemf("WAL replay: %d live jobs, %d completed twice, %d distinct IDs (want 0, 0, %d)",
			live, completedTwice, len(submitted), n)
	}
	res.Exact["journal.appends_per_job"] = float64(records) / float64(n)
	layer["journal.appends_per_job"] = float64(records) / float64(n)
	layer["journal.bytes_per_job"] = float64(walBytes) / float64(n)
	layer["journal.replay_ms"] = float64(replay.Microseconds()) / 1e3
	if s := layer["dispatch.spilled_per_job"]; s < 0.9 {
		res.problemf("dispatch.spilled_per_job = %.3f < 0.9: the workload no longer exercises spill", s)
	}
}

// setupOnlyInproc repeats the set-up without running anything, for more
// set-up samples per run.
func setupOnlyInproc(name string, seed int64, sz sizes, dir string) (time.Duration, error) {
	_, eng, d, err := setupInproc(name, seed, sz, dir, "", nil)
	if err != nil {
		return 0, err
	}
	eng.Close()
	return d, nil
}
