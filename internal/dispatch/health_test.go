package dispatch

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/obs/obstest"
)

// wantUnhealthy asserts that /healthz, backed by d.Health, answers 503 and
// names cond.
func wantUnhealthy(t *testing.T, d *Dispatcher, cond string) {
	t.Helper()
	if code, body := obstest.Healthz(d.Health); code != http.StatusServiceUnavailable || !strings.Contains(body, cond+":") {
		t.Fatalf("/healthz = %d %q, want 503 naming %s", code, body, cond)
	}
}

// wantHealthy asserts that /healthz, backed by d.Health, answers 200.
func wantHealthy(t *testing.T, d *Dispatcher) {
	t.Helper()
	if code, body := obstest.Healthz(d.Health); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q, want 200", code, body)
	}
}

// bigJob is a sequential job whose spec carries 2 KiB, so a few hundred of
// them outgrow a small file-size limit.
func bigJob(id string) Job {
	return Job{Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "noop", Args: []string{strings.Repeat("x", 2<<10)}}}
}

// TestHealthJournalDegraded: a journal whose commits fail reads
// journal-degraded, and healthy again once its retry succeeds.
func TestHealthJournalDegraded(t *testing.T) {
	jnl := &faultJournal{}
	jnl.degraded.Store(true)
	d := New(Config{Journal: jnl})
	defer d.Close()
	wantUnhealthy(t, d, "journal-degraded")
	jnl.degraded.Store(false)
	wantHealthy(t, d)
}

// TestHealthJournalDropped: a record the journal drops reads journal-dropped
// until a checkpoint that began after the drop succeeds, since that snapshot
// holds the state the record carried.
func TestHealthJournalDropped(t *testing.T) {
	jnl := &checkpointJournal{faultJournal{appendErr: fmt.Errorf("retry buffer full")}}
	d := New(Config{Journal: jnl})
	defer d.Close()
	wantHealthy(t, d)
	if _, err := d.Submit(seqJob("a")); err != nil {
		t.Fatal(err)
	}
	wantUnhealthy(t, d, "journal-dropped")
	jnl.appendErr = nil
	if err := d.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	wantHealthy(t, d)
}

// checkpointJournal is a faultJournal that takes online checkpoints.
type checkpointJournal struct{ faultJournal }

func (c *checkpointJournal) Segments() int { return 1 }
func (c *checkpointJournal) Checkpoint(write func(emit func(journal.Record) error) error) error {
	return write(func(journal.Record) error { return nil })
}

// TestHealthTraceDropped: lifecycle events dropped behind a held observer
// read trace-dropped.
func TestHealthTraceDropped(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	d := New(Config{OnEvent: func(e Event) {
		if e.JobID == "hold" {
			close(held)
			<-release
		}
	}})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer close(release)
	d.emit(Event{Kind: EvJobQueued, JobID: "hold"})
	<-held
	wantHealthy(t, d)
	for i := 0; i <= maxPendingEvents; i++ {
		d.emit(Event{Kind: EvJobSubmitted})
	}
	if d.DroppedEvents() == 0 {
		t.Fatal("no event dropped past the pending bound")
	}
	wantUnhealthy(t, d, "trace-dropped")
}

// TestHealthSpillDegraded: once a spill write fails under a file-size limit,
// queued jobs stay in memory and /healthz reads spill-degraded. The limit
// is per process, so a child process runs the dispatcher.
func TestHealthSpillDegraded(t *testing.T) {
	if runInChild(t, "TestHealthSpillDegraded") {
		return
	}
	d := New(Config{HotQueueJobs: 4, Shards: 1})
	defer d.Close()
	setFileLimit(t, 256<<10)
	for i := 0; i < 300; i++ {
		if _, err := d.Submit(bigJob(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantHealthy(t, d)
		}
	}
	wantUnhealthy(t, d, "spill-degraded")
}

// TestHealthCheckpointFailing: an online checkpoint whose snapshot is larger
// than the file-size limit fails, and /healthz reads checkpoint-failing until
// a later checkpoint succeeds. A child process runs the dispatcher, since the
// limit is per process.
func TestHealthCheckpointFailing(t *testing.T) {
	if runInChild(t, "TestHealthCheckpointFailing") {
		return
	}
	wal, err := journal.OpenWAL(journal.Options{Dir: t.TempDir(), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Journal: wal, HotQueueJobs: -1, Shards: 1})
	defer d.Close()
	d.compact = 0 // checkpoint on every janitor tick
	for i := 0; i < 300; i++ {
		if _, err := d.Submit(bigJob(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	wantHealthy(t, d)
	// The snapshot of 300 specs is about 600 KiB in one segment.
	restore := setFileLimit(t, 256<<10)
	d.maybeCheckpoint()
	wantUnhealthy(t, d, "checkpoint-failing")
	restore()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.maybeCheckpoint() // refused while the failed write keeps the WAL degraded
		if code, _ := obstest.Healthz(d.Health); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			wantHealthy(t, d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runInChild runs the named test again in a child process and reports true
// once it passed there; in the child it reports false, so the test body
// runs.
func runInChild(t *testing.T, name string) bool {
	t.Helper()
	if os.Getenv("JETS_HEALTH_CHILD") == name {
		return false
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), "JETS_HEALTH_CHILD="+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	return true
}

// setFileLimit lowers this process's RLIMIT_FSIZE to n bytes and returns a
// function that restores it.
func setFileLimit(t *testing.T, n uint64) func() {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: n, Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
}
