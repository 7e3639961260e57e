package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
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
	// spilledJobReadBudget is the read syscalls per spilled job: a refill
	// batch of 1,024 is one read per segment it touches (0.001 measured;
	// 0.44-0.62 when the reads stopped at each other shard's records).
	spilledJobReadBudget = 0.01
	// coldJobHeapBudget is the heap bytes one queued-cold job holds: its
	// table entry, its ID and its place in a cold tail (288 measured; 332
	// with the spill store's own by-ID index beside the table).
	coldJobHeapBudget = 300
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
	perJob, _ := jobAllocs(t, eng, 20000, closedLoop)
	t.Logf("%.2f allocations per job (budget %d)", perJob, seqJobAllocBudget)
	if perJob > seqJobAllocBudget {
		t.Errorf("%.2f allocations per job, budget %d", perJob, seqJobAllocBudget)
	}
}

// TestSpilledJobAllocs is the durable path's count: a burst submitted in
// batches of 256 to an engine that journals every transition and keeps 64
// jobs hot per shard, so nearly every job is spilled and read back. It also
// counts the read syscalls the refills make; two shards interleave their
// cold records in one spill segment.
func TestSpilledJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	if testing.Short() {
		t.Skip("runs 20,480 jobs")
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	eng, err := NewEngine(Options{LocalWorkers: 8, Runner: runner, DataDir: t.TempDir(), HotQueueJobs: 64, Shards: 2})
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
	perJob, reads := jobAllocs(t, eng, 20480, burst)
	spilled := eng.Dispatcher().Stats().JobsSpilled - spilled0
	if spilled < 20000 {
		t.Fatalf("%d of 20,480 jobs spilled: the test no longer exercises the spill path", spilled)
	}
	t.Logf("%.2f allocations per job (budget %d)", perJob, spilledJobAllocBudget)
	if perJob > spilledJobAllocBudget {
		t.Errorf("%.2f allocations per job, budget %d", perJob, spilledJobAllocBudget)
	}
	if reads < 0 {
		t.Skip("no /proc/self/io: read syscalls not counted")
	}
	perSpilled := float64(reads) / float64(spilled)
	t.Logf("%.4f read syscalls per spilled job (budget %g)", perSpilled, spilledJobReadBudget)
	if perSpilled > spilledJobReadBudget {
		t.Errorf("%.4f read syscalls per spilled job, budget %g", perSpilled, spilledJobReadBudget)
	}
}

// TestColdJobHeapBytes pins what the dispatcher holds in memory for a
// queued-cold job: 200,000 jobs queued behind a hot window of 64 with no
// worker to run them, so all but a few hundred wait in the cold tails with
// their specs on disk. The job IDs are the caller's and are made before the
// count starts.
func TestColdJobHeapBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("queues 200,000 jobs")
	}
	eng, err := NewEngine(Options{DataDir: t.TempDir(), HotQueueJobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n, batch = 200000, 256
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("job%d", i)
	}
	jobs := make([]dispatch.Job, batch)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for lo := 0; lo < n; lo += batch {
		part := jobs[:min(batch, n-lo)]
		for i := range part {
			part[i] = dispatch.Job{Spec: hydra.JobSpec{JobID: ids[lo+i], NProcs: 1, Cmd: "noop"}}
		}
		if _, err := eng.SubmitBatch(part); err != nil {
			t.Fatal(err)
		}
	}
	clear(jobs)
	if cold := eng.Dispatcher().SpilledJobs(); cold < n-1000 {
		t.Fatalf("%d of %d jobs cold: the test no longer measures the cold tail", cold, n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f heap bytes per cold job (budget %d)", perJob, coldJobHeapBudget)
	if perJob > coldJobHeapBudget {
		t.Errorf("%.0f heap bytes per cold job, budget %d", perJob, coldJobHeapBudget)
	}
}

// jobAllocs warms eng up with 2,048 noop jobs, then runs n more through run
// and returns the process's mallocs per job over the second run, and its
// read syscalls over that run (-1 where /proc/self/io is absent). The jobs
// and the completion callback are made before the count starts, so what is
// counted is the engine's work alone.
func jobAllocs(t *testing.T, eng *Engine, n int, run func(*Engine, []dispatch.Job, chan bool, func(dispatch.JobResult))) (float64, int64) {
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
	r0, _, ok := procIO()
	runtime.ReadMemStats(&before)
	run(eng, measured, done, onDone)
	runtime.ReadMemStats(&after)
	r1, _, _ := procIO()
	reads := r1 - r0
	if !ok {
		reads = -1
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n), reads
}

// procIO reads the process's read and write syscall counts (syscr and syscw
// in /proc/self/io); ok is false where the file is absent.
func procIO() (reads, writes int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, val, found := strings.Cut(line, ": ")
		v, err := strconv.ParseInt(val, 10, 64)
		if !found || err != nil {
			continue
		}
		switch name {
		case "syscr":
			reads, seen = v, seen+1
		case "syscw":
			writes, seen = v, seen+1
		}
	}
	return reads, writes, seen == 2
}

func checkDone(t *testing.T, failed bool) {
	t.Helper()
	if failed {
		t.Fatal("a noop job failed")
	}
}
