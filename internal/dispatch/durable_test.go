package dispatch

// Tests for the durable-state PR: the live-ID duplicate check, handles
// stranded by Close, the retry-backoff zero-vs-negative contract, and the
// journal recovery path (see recovery.go and internal/journal).

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/worker"
)

func seqJob(id string) Job {
	return Job{Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "noop"}, Type: Sequential}
}

// TestSubmitDuplicateQueuedJobID is the regression test for the duplicate
// check that consulted only the running table: with no workers the first
// submission sits in a shard queue, so the old code accepted a second job
// under the same ID and two handles fought over one identity.
func TestSubmitDuplicateQueuedJobID(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	if _, err := d.Submit(seqJob("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(seqJob("dup")); err == nil {
		t.Fatal("duplicate of a queued job accepted")
	}
	if _, err := d.SubmitBatch([]Job{seqJob("dup")}); err == nil {
		t.Fatal("SubmitBatch accepted a duplicate of a queued job")
	}
	// A rejected batch must roll back the reservations it already made.
	if _, err := d.SubmitBatch([]Job{seqJob("fresh"), seqJob("dup")}); err == nil {
		t.Fatal("batch containing a duplicate accepted")
	}
	if _, err := d.Submit(seqJob("fresh")); err != nil {
		t.Fatalf("ID from a rolled-back batch still reserved: %v", err)
	}
}

// TestSubmitDuplicateRace pins the check-and-reserve atomicity: the old code
// released d.mu between the duplicate check and placement, so two racing
// submits of one ID could both pass.
func TestSubmitDuplicateRace(t *testing.T) {
	d := New(Config{})
	defer d.Close()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("race-%d", i)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				_, errs[k] = d.Submit(seqJob(id))
			}(k)
		}
		wg.Wait()
		accepted := 0
		for _, err := range errs {
			if err == nil {
				accepted++
			}
		}
		if accepted != 1 {
			t.Fatalf("id %s: %d of 2 racing submits accepted, want exactly 1", id, accepted)
		}
	}
}

// TestCloseFailsQueuedHandle: a job still in a shard queue at Close used to
// leave its handle unresolved forever, leaking every goroutine parked on
// Done. It must now fail with ErrDispatcherClosed.
func TestCloseFailsQueuedHandle(t *testing.T) {
	d := New(Config{})
	h, err := d.Submit(seqJob("stranded"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan JobResult, 1)
	go func() { done <- h.Wait() }()
	d.Close()
	select {
	case res := <-done:
		if !res.Failed || res.Err != ErrDispatcherClosed.Error() {
			t.Fatalf("stranded result = %+v, want ErrDispatcherClosed failure", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued handle still unresolved after Close")
	}
}

// TestCloseFailsPendingRetryHandle: a faulted job parked in its retry-backoff
// timer when Close runs had its timer aborted via quit with the handle
// left unresolved. The waiter must unblock with ErrDispatcherClosed.
func TestCloseFailsPendingRetryHandle(t *testing.T) {
	tc := startCluster(t, 1, Config{
		MaxJobRetries: 1, HeartbeatTimeout: 5 * time.Second,
		RetryBackoff: time.Minute, RetryBackoffMax: time.Minute,
	})
	faulted := make(chan struct{})
	var once sync.Once
	tc.runner.Register("victim", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		once.Do(func() {
			tc.workers[0].Kill()
			close(faulted)
		})
		<-ctx.Done()
		return 1
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "parked", NProcs: 1, Cmd: "victim"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	<-faulted
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.stateCount(retryBackoff) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("faulted job never entered retry backoff")
		}
		time.Sleep(time.Millisecond)
	}
	tc.d.Close()
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("backoff-parked handle unresolved after Close")
	}
	if res := h.Wait(); !res.Failed || res.Err != ErrDispatcherClosed.Error() {
		t.Fatalf("result = %+v, want ErrDispatcherClosed failure", res)
	}
}

// TestRetryDelayZeroTreatedAsDefault pins the retryDelay contract directly
// (bypassing New's normalization): zero means the 100ms default, matching
// core.Options, and only a negative value disables the delay. The old <= 0
// test conflated the two, so a zero silently meant "no backoff".
func TestRetryDelayZeroTreatedAsDefault(t *testing.T) {
	d := &Dispatcher{cfg: Config{RetryBackoff: 0, RetryBackoffMax: 5 * time.Second}}
	if got := d.retryDelay(1); got != 100*time.Millisecond {
		t.Fatalf("retryDelay(1) with zero backoff = %v, want the 100ms default", got)
	}
	d = &Dispatcher{cfg: Config{RetryBackoff: -1}}
	if got := d.retryDelay(1); got != 0 {
		t.Fatalf("retryDelay(1) with negative backoff = %v, want 0 (disabled)", got)
	}
}

// TestJournalRecoveryLifecycle runs one workload across three dispatcher
// lives sharing a WAL directory: jobs stranded by Close in the first life
// are rebuilt in the second (where their IDs are reserved like any live
// job's), complete normally once workers arrive, and are deduped by their
// Completed records in the third.
func TestJournalRecoveryLifecycle(t *testing.T) {
	dir := t.TempDir()
	open := func() journal.Journal {
		w, err := journal.OpenWAL(journal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Life 1: two jobs accepted, no workers to run them, stranded by Close.
	d1 := New(Config{Journal: open()})
	h1, err := d1.Submit(seqJob("q1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.SubmitBatch([]Job{seqJob("q2")}); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	if res := h1.Wait(); res.Err != ErrDispatcherClosed.Error() {
		t.Fatalf("stranded result = %+v", res)
	}

	// Life 2: both jobs come back and run to completion.
	d2 := New(Config{Journal: open()})
	if err := d2.RecoveryError(); err != nil {
		t.Fatal(err)
	}
	rec := d2.RecoveredJobs()
	if len(rec) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec))
	}
	if rec[0].JobID() != "q1" || rec[1].JobID() != "q2" {
		t.Fatalf("recovery lost submission order: %s, %s", rec[0].JobID(), rec[1].JobID())
	}
	if _, err := d2.Submit(seqJob("q1")); err == nil {
		t.Fatal("duplicate of a recovered job accepted")
	}
	addr, err := d2.Start()
	if err != nil {
		t.Fatal(err)
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := worker.New(worker.Config{
			ID: fmt.Sprintf("rw%d", i), Host: "local", Cores: 1,
			DispatcherAddr: addr, Runner: runner,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	for _, h := range rec {
		if res := h.Wait(); res.Failed {
			t.Fatalf("recovered job %s failed: %s", res.JobID, res.Err)
		}
	}
	d2.Close()
	cancel()
	wg.Wait()

	// Life 3: nothing left — the Completed records dedupe both jobs.
	d3 := New(Config{Journal: open()})
	defer d3.Close()
	if got := d3.RecoveredJobs(); len(got) != 0 {
		t.Fatalf("recovered %d jobs after completion, want 0", len(got))
	}
}

// TestJournalRecoveryResubmitAfterComplete: an ID submitted, completed, and
// resubmitted within one run appears twice in the journal's submission
// order. Recovery used to rebuild that *Job twice — placing it twice, and
// letting two completions race to close one handle's done channel (panic:
// close of closed channel). Exactly one live instance must come back.
func TestJournalRecoveryResubmitAfterComplete(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.OpenWAL(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	records := []journal.Record{
		{Kind: journal.Submitted, JobID: "re", NProcs: 1, Cmd: "noop"},
		{Kind: journal.Dispatched, JobID: "re"},
		{Kind: journal.Completed, JobID: "re"},
		{Kind: journal.Submitted, JobID: "re", NProcs: 1, Cmd: "noop"},
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := journal.OpenWAL(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Journal: w2})
	defer d.Close()
	if rec := d.RecoveredJobs(); len(rec) != 1 {
		t.Fatalf("recovered %d instances of the resubmitted job, want 1", len(rec))
	}
	if got := d.QueuedJobs(); got != 1 {
		t.Fatalf("queued after recovery = %d, want 1", got)
	}
	if got := d.stats.jobsReplayed.Load(); got != 1 {
		t.Fatalf("jobsReplayed = %d, want 1", got)
	}
}

// faultJournal wraps a Nop journal with scripted failures, for exercising
// the dispatcher's error paths without a real disk fault.
type faultJournal struct {
	journal.Nop
	appendErr error
	syncErr   error
	records   []journal.Record // replayed to the dispatcher
	compacted bool
	degraded  atomic.Bool
}

func (f *faultJournal) Append(journal.Record) error { return f.appendErr }
func (f *faultJournal) Degraded() bool              { return f.degraded.Load() }
func (f *faultJournal) Sync() error                 { return f.syncErr }
func (f *faultJournal) Compact() error              { f.compacted = true; return nil }
func (f *faultJournal) Replay(fn func(journal.Record) error) error {
	for _, r := range f.records {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// TestRecoverySyncFailureSkipsCompact: if the fsync of the re-journaled live
// set fails, the replayed segments are the only durable copy of the workload
// — Compact must not run, and the failure must be visible via RecoveryError.
func TestRecoverySyncFailureSkipsCompact(t *testing.T) {
	jnl := &faultJournal{
		syncErr: fmt.Errorf("disk full"),
		records: []journal.Record{{Kind: journal.Submitted, JobID: "j", NProcs: 1, Cmd: "noop"}},
	}
	d := New(Config{Journal: jnl})
	defer d.Close()
	if jnl.compacted {
		t.Fatal("Compact ran after Sync failed; replayed segments were the only durable copy")
	}
	if err := d.RecoveryError(); err == nil {
		t.Fatal("RecoveryError nil after re-journal fsync failure")
	}
	if rec := d.RecoveredJobs(); len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (recovery itself still succeeds)", len(rec))
	}
}

// TestJournalAppendErrorCounted: a broken journal (sticky write/fsync error)
// must not silently drop records — every failed append bumps the
// JournalErrors counter exported as jets_journal_errors_total.
func TestJournalAppendErrorCounted(t *testing.T) {
	jnl := &faultJournal{appendErr: fmt.Errorf("io error")}
	d := New(Config{Journal: jnl})
	defer d.Close()
	if _, err := d.Submit(seqJob("a")); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().JournalErrors; got != 1 {
		t.Fatalf("JournalErrors after one failed append = %d, want 1", got)
	}
}

// TestJournalRecoveryRequeuesDispatched: a job with a Dispatched record but
// no Completed record was running when the process died; recovery must
// route it back through the requeue path, while completed jobs dedupe.
func TestJournalRecoveryRequeuesDispatched(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.OpenWAL(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	records := []journal.Record{
		{Kind: journal.Submitted, JobID: "ran", NProcs: 1, Cmd: "noop"},
		{Kind: journal.Dispatched, JobID: "ran"},
		{Kind: journal.Submitted, JobID: "done", NProcs: 1, Cmd: "noop"},
		{Kind: journal.Dispatched, JobID: "done"},
		{Kind: journal.Completed, JobID: "done"},
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := journal.OpenWAL(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Negative backoff: the requeue is immediate, so the job is observable
	// in a shard queue right after New.
	d := New(Config{Journal: w2, RetryBackoff: -1})
	defer d.Close()
	rec := d.RecoveredJobs()
	if len(rec) != 1 || rec[0].JobID() != "ran" {
		ids := make([]string, len(rec))
		for i, h := range rec {
			ids[i] = h.JobID()
		}
		t.Fatalf("recovered %v, want only the uncompleted job", ids)
	}
	if got := d.QueuedJobs(); got != 1 {
		t.Fatalf("queued after recovery = %d, want 1 (dispatched job requeued)", got)
	}
	if got := d.stats.jobsReplayed.Load(); got != 1 {
		t.Fatalf("jobsReplayed = %d, want 1", got)
	}
}
