package dispatch

// Lifecycle-trace ordering tests: the per-job event sequence the observability
// layer documents (events.go) must hold exactly, including across a
// faulted-worker retry, and the instrumentation histograms must see every job.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"jets/internal/faults"
	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/worker"
)

// jobKindIndexes returns, for one job, the event-stream index of the first
// occurrence of each kind (and the last index of repeatable kinds).
func jobEvents(rec *TraceRecorder, jobID string) []Event {
	var out []Event
	for _, e := range rec.Events() {
		if e.JobID == jobID {
			out = append(out, e)
		}
	}
	return out
}

func waitForEvent(t *testing.T, rec *TraceRecorder, kind EventKind, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rec.Count(kind) < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d %q events; trace: %+v", n, kind, rec.Events())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertOrdered checks that the kinds occur in the given order within the
// job's event slice, each appearing exactly the expected number of times.
func assertOrdered(t *testing.T, events []Event, want []EventKind) {
	t.Helper()
	var got []EventKind
	for _, e := range events {
		got = append(got, e.Kind)
	}
	if len(got) != len(want) {
		t.Fatalf("event sequence length %d, want %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q:\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
}

func TestLifecycleTraceOrderingMPI(t *testing.T) {
	rec := &TraceRecorder{}
	tc := startCluster(t, 2, Config{OnEvent: rec.Record})
	tc.runner.Register("wired-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 1
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 2
		}
		return 0
	})
	h, err := tc.d.Submit(Job{
		Spec: hydra.JobSpec{JobID: "lifecycle", NProcs: 2, Cmd: "wired-app"},
		Type: MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	waitForEvent(t, rec, EvJobCompleted, 1)

	// The full documented sequence for a healthy 2-rank MPI job. pmi-wired
	// must land after both task-sent events (ranks can only dial once their
	// proxy task reached a worker) and before any task-done (the barrier
	// cannot release until every rank has initialized).
	assertOrdered(t, jobEvents(rec, "lifecycle"), []EventKind{
		EvJobSubmitted, EvJobQueued, EvGroupAssembled, EvJobStarted,
		EvTaskSent, EvTaskSent, EvPMIWired, EvTaskDone, EvTaskDone,
		EvJobCompleted,
	})

	// The queue-wait, assembly, and duration histograms all saw the job.
	for _, h := range []struct {
		name  string
		count int64
	}{
		{"queueWait", tc.d.ins.queueWait.Count()},
		{"assembly", tc.d.ins.assembly.Count()},
		{"jobDur", tc.d.ins.jobDur.Count()},
	} {
		if h.count != 1 {
			t.Errorf("%s histogram count = %d, want 1", h.name, h.count)
		}
	}
	if tc.d.DroppedEvents() != 0 {
		t.Errorf("dropped=%d", tc.d.DroppedEvents())
	}
}

func TestLifecycleTraceFaultedRetry(t *testing.T) {
	rec := &TraceRecorder{}
	tc := startCluster(t, 2, Config{OnEvent: rec.Record, MaxJobRetries: 2, HeartbeatTimeout: 5 * time.Second})
	var mu sync.Mutex
	runs := 0
	tc.runner.Register("victim", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if first {
			// First attempt: the hosting worker is killed by the fault
			// injector below; block until its context tears down.
			<-ctx.Done()
			return 1
		}
		return 0
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "faulted", NProcs: 1, Cmd: "victim"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first attempt to be running, then inject a §6.1.5-style
	// fault targeted at the busy worker.
	var busy *worker.Worker
	deadline := time.Now().Add(5 * time.Second)
	for busy == nil {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never started")
		}
		for _, w := range tc.workers {
			if w.Busy() {
				busy = w
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	inj := faults.NewInjector([]*worker.Worker{busy}, time.Hour, 1)
	if !inj.KillOne() {
		t.Fatal("injector had no worker to kill")
	}

	res := h.Wait()
	if res.Failed {
		t.Fatalf("retried job failed: %+v", res)
	}
	if res.Retries != 1 {
		t.Fatalf("retries=%d want 1", res.Retries)
	}
	waitForEvent(t, rec, EvJobCompleted, 1)

	// Full sequence across the fault: the first attempt ends in job-retried,
	// which feeds back into job-queued (Detail "retry") for the second.
	events := jobEvents(rec, "faulted")
	assertOrdered(t, events, []EventKind{
		EvJobSubmitted, EvJobQueued, EvGroupAssembled, EvJobStarted, EvTaskSent,
		EvJobRetried,
		EvJobQueued, EvGroupAssembled, EvJobStarted, EvTaskSent, EvTaskDone,
		EvJobCompleted,
	})
	// The requeue must be distinguishable from the first placement.
	queued := 0
	for _, e := range events {
		if e.Kind == EvJobQueued {
			queued++
			if queued == 1 && e.Detail != "" {
				t.Errorf("first queued event carries detail %q", e.Detail)
			}
			if queued == 2 && e.Detail != "retry" {
				t.Errorf("requeue event detail = %q, want \"retry\"", e.Detail)
			}
		}
	}
	// Both attempts were seated, so the seated-lifetime histogram saw two
	// pops while queue-wait saw both waits.
	if got := tc.d.ins.jobDur.Count(); got != 2 {
		t.Errorf("jobDur count = %d, want 2 (one per attempt)", got)
	}
	if got := tc.d.ins.queueWait.Count(); got != 2 {
		t.Errorf("queueWait count = %d, want 2 (one per attempt)", got)
	}
}

func TestStealEventAndCounter(t *testing.T) {
	// Force the multi-shard path: jobs land in shards without idle workers,
	// so group assembly crosses shards and counts as a steal.
	rec := &TraceRecorder{}
	tc := startCluster(t, 4, Config{OnEvent: rec.Record, Shards: 4})
	tc.runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	var handles []*Handle
	for i := 0; i < 8; i++ {
		h, err := tc.d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("s%d", i), NProcs: 3, Cmd: "noop"},
			Type: MPI,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job failed: %+v", res)
		}
	}
	// A 3-proc group over 4 workers spread across 4 shards cannot assemble
	// from any single shard's idle set, so at least one launch went through
	// the stolen path — and the counter must agree with the events.
	st := tc.d.Stats()
	if st.Steals == 0 {
		t.Fatal("no steals recorded for cross-shard group assembly")
	}
	// Events reach the recorder through the dispatcher's drainer goroutine,
	// possibly after the jobs' handles complete; Close waits for it to
	// deliver everything emitted so far.
	tc.d.Close()
	stolen := 0
	for _, e := range rec.Events() {
		if e.Kind == EvGroupAssembled && e.Detail == "stolen" {
			stolen++
		}
	}
	if stolen != st.Steals {
		t.Errorf("stolen group-assembled events = %d, Stats().Steals = %d", stolen, st.Steals)
	}
}
