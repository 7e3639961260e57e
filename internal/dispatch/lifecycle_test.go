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

// TestStealQueuedUnreadableSpecFailsHandle: a cold job whose spilled spec
// cannot be read back when it is stolen fails its handle. It used to be
// dropped from the dispatcher's state and journaled Completed{Failed} with the
// handle left pending forever — and a router wires that handle with OnDone,
// so its table entry leaked and Router.Drain span until ctx expiry.
func TestStealQueuedUnreadableSpecFailsHandle(t *testing.T) {
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
	segs, err := filepath.Glob(filepath.Join(dir, "spill-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spill segments to remove (err=%v)", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	stolen := d.StealQueued(6, "peer")
	if len(stolen) != 1 || stolen[0].Spec.JobID != "c0" {
		t.Fatalf("stole %+v, want only the hydrated c0", stolen)
	}
	for _, h := range handles[1:] {
		res, ok := h.TryResult()
		if !ok {
			t.Fatalf("handle %s still pending after its unreadable spec was stolen", h.JobID())
		}
		if !res.Failed {
			t.Fatalf("handle %s = %+v, want failed", h.JobID(), res)
		}
	}
	if live := d.LiveJobs(); len(live) != 0 {
		t.Fatalf("live after steal = %v, want none", live)
	}
	if st := d.Stats(); st.JobsFailed != 5 {
		t.Fatalf("JobsFailed = %d, want 5", st.JobsFailed)
	}
}

// TestStealQueuedWakesDrain: stealing the last live jobs out of an instance
// wakes a Drain already waiting on them. StealQueued used to remove the jobs
// without kicking the waiters, so the Drain blocked until some unrelated
// completion or its ctx expired.
func TestStealQueuedWakesDrain(t *testing.T) {
	d := New(Config{Shards: 1})
	defer d.Close()
	for i := 0; i < 4; i++ {
		if _, err := d.Submit(seqJob(fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- d.Drain(ctx) }()
	// Let Drain park first. The fixed code passes in either order; the pause
	// only makes the missing wake-up reproduce reliably.
	time.Sleep(50 * time.Millisecond)
	if got := d.StealQueued(4, "peer"); len(got) != 4 {
		t.Fatalf("stole %d, want 4", len(got))
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain still blocked after every live job was stolen")
	}
}

// TestLifecycleInvariants drives a seeded interleaving of every way into and
// out of the job table — Submit, SubmitBatch, SubmitStolen, worker loss with
// retries, spill and rehydration behind a hot window of 4, StealQueued,
// online checkpoints, and Close — and checks what must hold however they
// interleave: every handle completes exactly once (a migrated one never), the
// table is empty once the dispatcher has drained or closed, every admitted
// job is accounted completed, failed or migrated, and the journal replays
// every job Close stranded and none after a clean drain.
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

	tracked := make(map[string]*trackedJob)
	var all []*trackedJob
	migrated := 0
	track := func(h *Handle) {
		tj := &trackedJob{h: h}
		h.OnDone(func(JobResult) { tj.done.Add(1) })
		tracked[h.JobID()] = tj
		all = append(all, tj)
	}
	nextJob := 0
	newJob := func() Job {
		nextJob++
		return Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", nextJob), NProcs: 1, Cmd: "noop"}, Type: Sequential}
	}

	for op := 0; op < 150; op++ {
		switch rng.Intn(10) {
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
			j := newJob()
			h, err := d.SubmitStolen(StolenJob{Spec: j.Spec, Type: j.Type, Retries: rng.Intn(2)})
			if err != nil {
				t.Fatal(err)
			}
			track(h)
		case 6:
			// Steal, then hand half of the loot back the way a router would
			// on a refused placement: the ID is free again, so it re-enters.
			for _, sj := range d.StealQueued(1+rng.Intn(6), "peer") {
				migrated++
				delete(tracked, sj.Spec.JobID)
				if rng.Intn(2) == 0 {
					h, err := d.SubmitStolen(sj)
					if err != nil {
						t.Fatal(err)
					}
					track(h)
				}
			}
		case 7:
			if len(workers) > 0 {
				i := rng.Intn(len(workers))
				workers[i].Kill()
				workers = append(workers[:i], workers[i+1:]...)
			}
			addWorker()
		case 8:
			if err := d.CompactJournal(); err != nil {
				t.Fatal(err)
			}
		case 9:
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
		t.Fatalf("Drain: %v (live: %v)", err, d.LiveJobs())
	}

	d.mu.Lock()
	left, byState := len(d.jobs), d.byState
	d.mu.Unlock()
	if left != 0 || byState != [numStates]int{} {
		t.Fatalf("job table holds %d entries (by state %v) after the run, want empty", left, byState)
	}
	stranded := make(map[string]bool)
	for _, tj := range all {
		want := int32(1)
		if tracked[tj.h.JobID()] != tj {
			want = 0 // stolen: the handle is abandoned, never completed
		}
		if got := tj.done.Load(); got != want {
			t.Errorf("handle %s completed %d times, want %d", tj.h.JobID(), got, want)
		}
		if res, ok := tj.h.TryResult(); ok && res.Err == ErrDispatcherClosed.Error() {
			stranded[tj.h.JobID()] = true
		}
	}
	if st := d.Stats(); st.JobsSubmitted != st.JobsCompleted+st.JobsFailed+migrated {
		t.Errorf("submitted %d != completed %d + failed %d + migrated %d",
			st.JobsSubmitted, st.JobsCompleted, st.JobsFailed, migrated)
	}
	t.Logf("%d admissions: %+v, migrated %d, stranded %d", len(all), d.Stats(), migrated, len(stranded))
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

// TestStealQueuedRefillsDrainedHotWindow: a steal that empties a shard's hot
// window must start the cold tail's rehydration, as a pop would. Only a pop
// used to, so the shard looked empty to the scheduling pass forever: idle
// workers, a cold backlog, and nothing running.
func TestStealQueuedRefillsDrainedHotWindow(t *testing.T) {
	d := New(Config{HotQueueJobs: 2, Shards: 1})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("r%d", i), NProcs: 1, Cmd: "noop"}, Type: Sequential}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.StealQueued(2, "peer"); len(got) != 2 {
		t.Fatalf("stole %d, want the 2 hot jobs", len(got))
	}
	runWorkers(t, d, addr, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("cold tail never ran after the steal emptied the hot window: %v (live: %v)", err, d.LiveJobs())
	}
}
