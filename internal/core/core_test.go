package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/worker"
)

func TestParseInput(t *testing.T) {
	in := `
# replica exchange batch
MPI: 4 namd2.sh input-1.pdb output-1.log
MPI: 8 namd2.sh input-2.pdb output-2.log

SEQ: exchange.sh snap-1 snap-2
hostname -f
`
	jobs, err := ParseInput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs=%d", len(jobs))
	}
	if jobs[0].Type != dispatch.MPI || jobs[0].Spec.NProcs != 4 ||
		jobs[0].Spec.Cmd != "namd2.sh" || len(jobs[0].Spec.Args) != 2 {
		t.Fatalf("job0 %+v", jobs[0])
	}
	if jobs[1].Spec.NProcs != 8 {
		t.Fatalf("job1 %+v", jobs[1])
	}
	if jobs[2].Type != dispatch.Sequential || jobs[2].Spec.Cmd != "exchange.sh" {
		t.Fatalf("job2 %+v", jobs[2])
	}
	if jobs[3].Type != dispatch.Sequential || jobs[3].Spec.Cmd != "hostname" ||
		jobs[3].Spec.Args[0] != "-f" {
		t.Fatalf("job3 %+v", jobs[3])
	}
	// IDs come from line numbers and must be unique.
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Spec.JobID] {
			t.Fatalf("duplicate id %s", j.Spec.JobID)
		}
		seen[j.Spec.JobID] = true
	}
}

func TestParseInputErrors(t *testing.T) {
	for _, in := range []string{
		"MPI: x cmd",
		"MPI: -3 cmd",
		"MPI: 4",
		"SEQ:",
	} {
		if _, err := ParseInput(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestLocalWorkersOpenNoSockets pins the local workers' transport: an engine
// with 8 of them holds one socket, the listener for external workers. Over
// loopback TCP it held 17, a dial and an accept per worker beside it.
func TestLocalWorkersOpenNoSockets(t *testing.T) {
	before := openSockets(t)
	e, err := NewEngine(Options{LocalWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := openSockets(t) - before; n != 1 {
		t.Fatalf("an engine with 8 local workers opened %d sockets, want 1 (its listener)", n)
	}
}

// openSockets counts the process's socket descriptors; it skips where
// /proc/self/fd does not exist.
func openSockets(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, ent := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + ent.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// TestTCPSyscallsPerJob counts the paper's wire: 8 external workers on
// loopback TCP run noop jobs through a closed window of 64, and each job may
// cost at most 2 write syscalls (the task frame, the result frame) and 4 read
// syscalls in the whole process (each side's read of its frame, and the read
// that finds the socket drained before the reader parks). Heartbeats are
// pushed past the run so they do not count. The counts are the whole
// process's, so the runtime's own writes (it wakes its network poller with
// a write to an eventfd: one such write in 31 runs on a 2-vCPU box) get a
// slack of 16 over the run. It skips where /proc/self/io does not exist.
func TestTCPSyscallsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 22,048 jobs over TCP")
	}
	if _, _, ok := procIO(); !ok {
		t.Skip("no /proc/self/io")
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	eng, err := NewEngine(Options{Runner: runner, Shards: 1, HeartbeatTimeout: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		eng.Close()
		cancel()
		wg.Wait()
	}()
	const workers = 8
	for i := 0; i < workers; i++ {
		w, err := worker.New(worker.Config{ID: fmt.Sprintf("tcp-%d", i), DispatcherAddr: eng.Addr(), Runner: runner})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); eng.WorkerTotal() < workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", eng.WorkerTotal(), workers)
		}
	}
	done := make(chan bool, 64)
	onDone := func(r dispatch.JobResult) { done <- r.Failed }
	closedLoop := func(prefix string, n int) {
		const window = 64
		for i := 0; i < n; i++ {
			if i >= window {
				checkDone(t, <-done)
			}
			h, err := eng.Submit(dispatch.Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("%s%d", prefix, i), NProcs: 1, Cmd: "noop"}})
			if err != nil {
				t.Fatal(err)
			}
			h.OnDone(onDone)
		}
		for i := 0; i < min(n, window); i++ {
			checkDone(t, <-done)
		}
	}
	closedLoop("warm", 2048)
	const n = 20000
	r0, w0, _ := procIO()
	closedLoop("job", n)
	r1, w1, _ := procIO()
	const stray = 16
	reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
	t.Logf("%.4f write and %.4f read syscalls per job (%d and %d for %d jobs)", writes, reads, w1-w0, r1-r0, n)
	if w1-w0 > 2*n+stray || r1-r0 > 4*n+stray {
		t.Errorf("%d write and %d read syscalls for %d jobs, want at most 2 and 4 per job (+%d)", w1-w0, r1-r0, n, stray)
	}
}

func newTestEngine(t *testing.T, workers int) (*Engine, *hydra.FuncRunner) {
	t.Helper()
	runner := hydra.NewFuncRunner()
	e, err := NewEngine(Options{
		LocalWorkers:   workers,
		CoresPerWorker: 4,
		Runner:         runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, runner
}

func TestEngineRunFile(t *testing.T) {
	e, runner := newTestEngine(t, 8)
	var seqRuns, mpiRuns atomic.Int64
	runner.Register("work.sh", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if _, isMPI := env["PMI_PORT"]; isMPI {
			comm, err := mpi.InitEnvFrom(env)
			if err != nil {
				return 1
			}
			defer comm.Close()
			if err := comm.Barrier(); err != nil {
				return 1
			}
			mpiRuns.Add(1)
			return 0
		}
		seqRuns.Add(1)
		return 0
	})
	in := `
MPI: 4 work.sh a
MPI: 2 work.sh b
SEQ: work.sh c
work.sh d
`
	rep, err := e.RunFile(context.Background(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("failed=%d results=%+v", rep.Failed(), rep.Results)
	}
	if got := mpiRuns.Load(); got != 6 { // 4 + 2 ranks
		t.Fatalf("mpi rank executions=%d", got)
	}
	if got := seqRuns.Load(); got != 2 {
		t.Fatalf("seq executions=%d", got)
	}
	if rep.Summary.Jobs != 4 {
		t.Fatalf("summary %+v", rep.Summary)
	}
	if rep.Allocation != 8 {
		t.Fatalf("allocation=%d", rep.Allocation)
	}
}

// TestReportCountsExternalWorkers is the `jets -workers 0` case: the workers
// attach only after the batch is submitted, and the report must still count
// them (it sampled the live count once, before any had registered, and
// printed "allocation: 0 workers").
func TestReportCountsExternalWorkers(t *testing.T) {
	e, runner := newTestEngine(t, 0)
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for e.Dispatcher().QueuedJobs() == 0 { // until RunBatch has submitted
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			w, err := worker.New(worker.Config{ID: fmt.Sprintf("ext%d", i), DispatcherAddr: e.Addr(), Runner: runner})
			if err != nil {
				t.Error(err)
				return
			}
			go w.Run(ctx)
		}
	}()
	rep, err := e.RunFile(ctx, strings.NewReader("SEQ: noop\nSEQ: noop\nMPI: 2 noop\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 || rep.Allocation != 2 {
		t.Fatalf("failed=%d allocation=%d, want 0 and 2", rep.Failed(), rep.Allocation)
	}
	if out := FormatReport(rep); !strings.HasPrefix(out, "jobs:        3 (0 failed)\nallocation:  2 workers\n") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestEngineUtilizationReasonable(t *testing.T) {
	e, runner := newTestEngine(t, 4)
	const taskMS = 30
	runner.Register("sleep.sh", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(taskMS * time.Millisecond)
		return 0
	})
	var jobs []dispatch.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("s%d", i), NProcs: 1, Cmd: "sleep.sh"},
			Type: dispatch.Sequential,
		})
	}
	rep, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatal("jobs failed")
	}
	// 20 x 30ms jobs on 4 workers: ideal makespan 150ms. Allow generous
	// slack but demand >50% utilization — the pilot-job model's whole point.
	if rep.Summary.Utilization < 0.5 {
		t.Fatalf("utilization %.2f too low (makespan %v)", rep.Summary.Utilization, rep.Summary.Makespan)
	}
}

func TestEngineBatchWithFailure(t *testing.T) {
	e, runner := newTestEngine(t, 2)
	runner.Register("maybe.sh", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if len(args) > 0 && args[0] == "fail" {
			return 1
		}
		return 0
	})
	jobs := []dispatch.Job{
		{Spec: hydra.JobSpec{JobID: "ok", NProcs: 1, Cmd: "maybe.sh"}, Type: dispatch.Sequential},
		{Spec: hydra.JobSpec{JobID: "bad", NProcs: 1, Cmd: "maybe.sh", Args: []string{"fail"}}, Type: dispatch.Sequential},
	}
	rep, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("failed=%d", rep.Failed())
	}
}

func TestEngineContextCancel(t *testing.T) {
	e, runner := newTestEngine(t, 1)
	runner.Register("forever.sh", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		<-ctx.Done()
		return 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := e.RunBatch(ctx, []dispatch.Job{
		{Spec: hydra.JobSpec{JobID: "f", NProcs: 1, Cmd: "forever.sh"}, Type: dispatch.Sequential},
	})
	if err == nil {
		t.Fatal("want context error")
	}
}

func TestFormatReport(t *testing.T) {
	e, runner := newTestEngine(t, 2)
	runner.Register("n", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int { return 0 })
	rep, err := e.RunBatch(context.Background(), []dispatch.Job{
		{Spec: hydra.JobSpec{JobID: "a", NProcs: 1, Cmd: "n"}, Type: dispatch.Sequential},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatReport(rep)
	for _, want := range []string{"jobs:", "utilization:", "allocation:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestStageFileThroughEngine(t *testing.T) {
	e, runner := newTestEngine(t, 1)
	_ = runner
	// Local workers have no cache dir, so staging is a no-op that must not
	// crash or wedge the engine.
	e.StageFile("lib.so", []byte("x"))
	runner.Register("n", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int { return 0 })
	rep, err := e.RunBatch(context.Background(), []dispatch.Job{
		{Spec: hydra.JobSpec{JobID: "a", NProcs: 1, Cmd: "n"}, Type: dispatch.Sequential},
	})
	if err != nil || rep.Failed() != 0 {
		t.Fatalf("err=%v failed=%d", err, rep.Failed())
	}
}

// TestGoroutinesPerIdleLocalWorker pins what an idle local worker costs in
// goroutines: its receive loop and, on the dispatcher's side, the
// connection's reader. A local link sends no heartbeats, the link is closed
// on cancel by a context.AfterFunc registration, which holds no goroutine,
// and the dispatcher's outbox for the worker runs a goroutine only while
// frames wait to be written. Two engines, with 1 and 9 workers, run side by
// side, so their fixed goroutines cancel.
func TestGoroutinesPerIdleLocalWorker(t *testing.T) {
	const want = 2
	g0 := settledGoroutines()
	small, err := NewEngine(Options{LocalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	waitIdle(t, small, 1)
	g1 := settledGoroutines()
	large, err := NewEngine(Options{LocalWorkers: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer large.Close()
	waitIdle(t, large, 9)
	g2 := settledGoroutines()
	perWorker := float64((g2-g1)-(g1-g0)) / 8
	t.Logf("%.2f goroutines per idle local worker", perWorker)
	if perWorker != want {
		t.Fatalf("%.2f goroutines per idle local worker, want %d", perWorker, want)
	}
}

// TestExternalWorkerCannotEvictLocalWorker: an idle local worker sends no
// heartbeats, so after half the heartbeat timeout its link looks stale. An
// external worker registering under its ID must still be refused as a
// duplicate rather than evict it, and the local worker keeps serving.
func TestExternalWorkerCannotEvictLocalWorker(t *testing.T) {
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	e, err := NewEngine(Options{LocalWorkers: 1, Runner: runner, HeartbeatTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	time.Sleep(300 * time.Millisecond)

	ext, err := worker.New(worker.Config{ID: "local-0", DispatcherAddr: e.Addr(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	// An admitted newcomer would serve until the context ends.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ext.Run(ctx); err == nil || !strings.Contains(err.Error(), "duplicate worker id") {
		t.Fatalf("external local-0: %v, want a duplicate worker id refusal", err)
	}

	h, err := e.Submit(dispatch.Job{Spec: hydra.JobSpec{JobID: "after", NProcs: 1, Cmd: "noop"}, Type: dispatch.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed || len(res.Workers) != 1 || res.Workers[0] != "local-0" {
		t.Fatalf("job after the refusal: %+v", res)
	}
	if st := e.Dispatcher().Stats(); st.WorkersLost != 0 {
		t.Fatalf("%d workers lost", st.WorkersLost)
	}
}

// waitIdle waits until all n of e's workers are parked.
func waitIdle(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Dispatcher().IdleWorkers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers idle", e.Dispatcher().IdleWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines is the goroutine count once it has held for 20 ms.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestFederatedDataDirRefused: a data directory that a federated engine
// wrote holds its journals under router/ and inst<i>/ and none at the top
// level. NewEngine refuses it by name rather than opening it empty, which
// would drop that run's unfinished jobs without a word.
func TestFederatedDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"router", "inst0", "inst1"} {
		if err := os.MkdirAll(filepath.Join(dir, sub, "spill"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "wal-00000001.log"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(Options{DataDir: dir})
	if err == nil {
		e.Close()
		t.Fatal("NewEngine opened a federated run's data directory")
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "federated") {
		t.Fatalf("error %q does not name the directory as a federated run's", msg)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("the refused directory gained journal segments %v", segs)
	}
}

// TestFederateOptionIgnored: Options.Federate no longer changes the engine;
// any value still builds one dispatcher that runs jobs.
func TestFederateOptionIgnored(t *testing.T) {
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	e, err := NewEngine(Options{LocalWorkers: 2, Runner: runner, Federate: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h, err := e.Submit(dispatch.Job{Spec: hydra.JobSpec{JobID: "j", NProcs: 1, Cmd: "noop"}})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed {
		t.Fatalf("job failed: %s", res.Err)
	}
	if got := e.Dispatcher().Workers(); got != 2 {
		t.Fatalf("the dispatcher holds %d workers, want both local workers", got)
	}
}
