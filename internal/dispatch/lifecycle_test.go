package dispatch

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/worker"
)

// TestRefillUnreadableSpecFailsHandle: a cold job whose spilled spec cannot
// be read back when a refill rehydrates it fails its handle, and leaves the
// job table, rather than staying queued with nothing to run.
func TestRefillUnreadableSpecFailsHandle(t *testing.T) {
	dir := t.TempDir()
	d := New(Config{HotQueueJobs: 1, Shards: 1, SpillDir: dir})
	defer d.Close()
	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := d.Submit(seqJob(fmt.Sprintf("c%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := d.SpilledJobs(); got != 5 {
		t.Fatalf("SpilledJobs = %d, want 5 behind a hot window of 1", got)
	}
	// Records not yet written are read from the store's buffer; put them on
	// disk so that removing the segments loses them.
	if err := d.spillLoaded().Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "spill-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spill segments to remove (err=%v)", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	// Popping the hydrated c0 drains the hot window and starts the refill.
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	startPipeWorkers(t, d, 1, runner)
	if res := handles[0].Wait(); res.Failed {
		t.Fatalf("hydrated c0 failed: %s", res.Err)
	}
	for _, h := range handles[1:] {
		select {
		case <-h.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("handle %s still pending after a refill found its spec unreadable", h.JobID())
		}
		if res, _ := h.TryResult(); !res.Failed {
			t.Fatalf("handle %s = %+v, want failed", h.JobID(), res)
		}
	}
	d.mu.Lock()
	left := len(d.jobs)
	d.mu.Unlock()
	if left != 0 {
		t.Fatalf("job table holds %d entries after every handle resolved, want none", left)
	}
	if st := d.Stats(); st.JobsFailed != 5 {
		t.Fatalf("JobsFailed = %d, want 5", st.JobsFailed)
	}
}

// TestLifecycleInvariants drives a seeded interleaving of every way into and
// out of the job table — Submit, SubmitBatch, worker loss with retries, spill
// and rehydration behind a hot window of 4, online checkpoints, and Close —
// and checks what must hold however they interleave: every handle completes
// exactly once, the table is empty once the dispatcher has drained or closed,
// every admitted job is accounted completed or failed, and the journal
// replays every job Close stranded and none after a clean drain.
func TestLifecycleInvariants(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			shards, seed := shards, seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				lifecycleRun(t, shards, seed, seed%2 == 0)
			})
		}
	}
}

// trackedJob is one admission the lifecycle test follows to its exit.
type trackedJob struct {
	h    *Handle
	done atomic.Int32
}

func lifecycleRun(t *testing.T, shards int, seed int64, closeMidFlight bool) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	openWAL := func() *journal.WAL {
		w, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cfg := Config{
		Shards: shards, HotQueueJobs: 4, SpillDir: filepath.Join(dir, "spill"),
		MaxJobRetries: 3, RetryBackoff: time.Millisecond, RetryBackoffMax: 2 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	}
	cfg.Journal = openWAL()
	d := New(cfg)
	d.compact = -1
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var workers []*worker.Worker
	nextWorker := 0
	addWorker := func() {
		w, err := newTestWorker(fmt.Sprintf("lw%d", nextWorker), addr, runner)
		if err != nil {
			t.Fatal(err)
		}
		nextWorker++
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := 0; i < 3; i++ {
		addWorker()
	}

	var all []*trackedJob
	track := func(h *Handle) {
		tj := &trackedJob{h: h}
		h.OnDone(func(JobResult) { tj.done.Add(1) })
		all = append(all, tj)
	}
	nextJob := 0
	newJob := func() Job {
		nextJob++
		return Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", nextJob), NProcs: 1, Cmd: "noop"}, Type: Sequential}
	}

	for op := 0; op < 150; op++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			h, err := d.Submit(newJob())
			if err != nil {
				t.Fatal(err)
			}
			track(h)
		case 3, 4:
			batch := make([]Job, 2+rng.Intn(14))
			for i := range batch {
				batch[i] = newJob()
			}
			hs, err := d.SubmitBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				track(h)
			}
		case 5:
			if len(workers) > 0 {
				i := rng.Intn(len(workers))
				workers[i].Kill()
				workers = append(workers[:i], workers[i+1:]...)
			}
			addWorker()
		case 6:
			if err := d.CompactJournal(); err != nil {
				t.Fatal(err)
			}
		case 7:
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		}
	}

	if closeMidFlight {
		d.Close()
		// Running jobs resolve as their workers' connections drop.
		cancel()
		wg.Wait()
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = d.Drain(dctx)
	dcancel()
	if err != nil {
		t.Fatalf("Drain: %v (%+v)", err, d.Stats())
	}

	d.mu.Lock()
	left, byState := len(d.jobs), d.byState
	d.mu.Unlock()
	if left != 0 || byState != [numStates]int{} {
		t.Fatalf("job table holds %d entries (by state %v) after the run, want empty", left, byState)
	}
	stranded := make(map[string]bool)
	for _, tj := range all {
		if got := tj.done.Load(); got != 1 {
			t.Errorf("handle %s completed %d times, want 1", tj.h.JobID(), got)
		}
		if res, ok := tj.h.TryResult(); ok && res.Err == ErrDispatcherClosed.Error() {
			stranded[tj.h.JobID()] = true
		}
	}
	if st := d.Stats(); st.JobsSubmitted != st.JobsCompleted+st.JobsFailed {
		t.Errorf("submitted %d != completed %d + failed %d",
			st.JobsSubmitted, st.JobsCompleted, st.JobsFailed)
	}
	t.Logf("%d admissions: %+v, stranded %d", len(all), d.Stats(), len(stranded))
	if !closeMidFlight && len(stranded) != 0 {
		t.Errorf("%d handles failed with ErrDispatcherClosed in a run that never closed", len(stranded))
	}
	d.Close()

	// Second life over the same journal and spill directory: every stranded
	// job comes back, and after a clean drain nothing does. (After a Close
	// mid-flight, a job that resolved once the journal was shut comes back
	// too: its terminal record had nowhere to go.)
	cfg.Journal = openWAL()
	d2 := New(cfg)
	defer d2.Close()
	if err := d2.RecoveryError(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	recovered := d2.RecoveredJobs()
	if !closeMidFlight && len(recovered) != 0 {
		t.Errorf("journal replayed %d live jobs after a clean drain, want 0", len(recovered))
	}
	for _, h := range recovered {
		delete(stranded, h.JobID())
	}
	for id := range stranded {
		t.Errorf("stranded job %s was not recovered", id)
	}
}
