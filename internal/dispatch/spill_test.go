package dispatch

// Tests for the disk-backed cold queue (spill.go): hot-window threshold
// accounting, duplicate-ID reservation against cold jobs, spilled-vs-unspilled
// completion equivalence, refill order and release, bounded WAL segment
// counts under online checkpointing, and recovery of spilled jobs across a
// restart (by SpillRef, without rehydrating the backlog).

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/worker"
)

func newTestWorker(id, addr string, runner hydra.Runner) (*worker.Worker, error) {
	return worker.New(worker.Config{
		ID: id, Host: "local", Cores: 1,
		DispatcherAddr: addr, Runner: runner,
	})
}

// TestSpillThresholdAndStats: with a hot window of 2 on one shard, a burst of
// 10 queued jobs keeps 2 hydrated and spills 8, and the depth accounting
// (QueuedJobs, SpilledJobs, Stats) sees all of them.
func TestSpillThresholdAndStats(t *testing.T) {
	d := New(Config{HotQueueJobs: 2, Shards: 1})
	defer d.Close()
	for i := 0; i < 10; i++ {
		if _, err := d.Submit(seqJob(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.QueuedJobs(); got != 10 {
		t.Fatalf("QueuedJobs = %d, want 10 (hot + cold)", got)
	}
	if got := d.SpilledJobs(); got != 8 {
		t.Fatalf("SpilledJobs = %d, want 8", got)
	}
	st := d.Stats()
	if st.JobsSpilled != 8 {
		t.Fatalf("Stats.JobsSpilled = %d, want 8", st.JobsSpilled)
	}
	if d.SpillBytes() <= 0 {
		t.Fatal("SpillBytes = 0 with 8 jobs spilled")
	}
}

// TestSubmitDuplicateSpilledJobID: the duplicate reservation must see jobs
// whose specs live only on disk — a cold job is as live as a hot one.
func TestSubmitDuplicateSpilledJobID(t *testing.T) {
	d := New(Config{HotQueueJobs: 1, Shards: 1})
	defer d.Close()
	for i := 0; i < 4; i++ {
		if _, err := d.Submit(seqJob(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Submit(seqJob("colddup")); err != nil {
		t.Fatal(err)
	}
	if d.SpilledJobs() == 0 {
		t.Fatal("test setup broken: nothing spilled")
	}
	if _, err := d.Submit(seqJob("colddup")); err == nil {
		t.Fatal("duplicate of a spilled job accepted")
	}
	if _, err := d.SubmitBatch([]Job{seqJob("colddup")}); err == nil {
		t.Fatal("SubmitBatch accepted a duplicate of a spilled job")
	}
}

// TestSpillEquivalence runs one workload far larger than the hot window and
// checks every job completes exactly once — the same completion set an
// unspilled dispatcher produces. Run under -race this also exercises the
// refill loop against concurrent scheduling.
func TestSpillEquivalence(t *testing.T) {
	const jobs = 400
	run := func(hot int) map[string]bool {
		tc := startCluster(t, 4, Config{HotQueueJobs: hot, Shards: 2})
		var mu sync.Mutex
		ran := map[string]bool{}
		tc.runner.Register("mark", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
			mu.Lock()
			if ran[args[0]] {
				mu.Unlock()
				t.Errorf("job %s ran twice", args[0])
				return 1
			}
			ran[args[0]] = true
			mu.Unlock()
			return 0
		})
		var handles []*Handle
		for i := 0; i < jobs; i++ {
			id := fmt.Sprintf("eq-%d", i)
			h, err := tc.d.Submit(Job{
				Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "mark", Args: []string{id}},
				Type: Sequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if res := h.Wait(); res.Failed {
				t.Fatalf("hot=%d: job %s failed: %s", hot, res.JobID, res.Err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]bool, len(ran))
		for id := range ran {
			out[id] = true
		}
		return out
	}

	spilled := run(8) // tiny window: the backlog spills heavily
	plain := run(-1)  // spilling disabled: the unbounded in-memory baseline
	if len(spilled) != jobs || len(plain) != jobs {
		t.Fatalf("completion sets: spilled=%d plain=%d, want %d each", len(spilled), len(plain), jobs)
	}
	for id := range plain {
		if !spilled[id] {
			t.Fatalf("job %s completed unspilled but not spilled", id)
		}
	}
}

// TestSpillRefillPreservesShardFIFO: cold jobs rehydrate in submission order
// behind the hot window — on a single shard with a single-core worker, a
// spilled backlog must complete strictly oldest-first.
func TestSpillRefillPreservesShardFIFO(t *testing.T) {
	d := New(Config{HotQueueJobs: 2, Shards: 1})
	defer d.Close()
	var handles []*Handle
	for i := 0; i < 50; i++ {
		h, err := d.Submit(seqJob(fmt.Sprintf("fifo-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if d.SpilledJobs() == 0 {
		t.Fatal("test setup broken: nothing spilled")
	}
	runner := &specRunner{got: map[string]Job{}}
	startPipeWorkers(t, d, 1, runner)
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	runner.mu.Lock()
	defer runner.mu.Unlock()
	if len(runner.order) != 50 {
		t.Fatalf("ran %d jobs, want 50", len(runner.order))
	}
	for i, id := range runner.order {
		if want := fmt.Sprintf("fifo-%02d", i); id != want {
			t.Fatalf("run order[%d] = %s, want %s (cold tail broke FIFO)", i, id, want)
		}
		if runner.got[id].Spec.Cmd == "" {
			t.Fatalf("cold job %s lost its spec", id)
		}
	}
}

// TestCompletedColdJobsReleaseSpilledEntries: a cold job that runs to its
// end leaves the spill store's custody, so the store empties with the queue.
func TestCompletedColdJobsReleaseSpilledEntries(t *testing.T) {
	d := New(Config{HotQueueJobs: 1, Shards: 1})
	defer d.Close()
	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := d.Submit(seqJob(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := d.SpilledJobs(); got < 4 {
		t.Fatalf("SpilledJobs before the run = %d, want >= 4", got)
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	startPipeWorkers(t, d, 1, runner)
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	if got := d.SpilledJobs(); got != 0 {
		t.Fatalf("SpilledJobs after every job completed = %d, want 0", got)
	}
	if sp := d.spillLoaded(); sp == nil || sp.Len() != 0 {
		t.Fatalf("spill store %v after every job completed, want open and empty", sp)
	}
}

// TestJournalSegmentsBounded is the unbounded-WAL-growth regression test: a
// long-lived dispatcher churning jobs must checkpoint online and keep its
// segment count at the configured bound — before online compaction, segments
// only ever grew until restart.
func TestJournalSegmentsBounded(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.OpenWAL(journal.Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{
		Journal:          w,
		HeartbeatTimeout: 200 * time.Millisecond, // janitor (checkpoint) tick every 50ms
	})
	d.compact = 3
	tc := startClusterOn(t, 2, d)
	tc.runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	maxSeen := 0
	for round := 0; round < 20; round++ {
		var handles []*Handle
		for i := 0; i < 50; i++ {
			h, err := tc.d.Submit(seqJob(fmt.Sprintf("churn-%d-%d", round, i)))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if res := h.Wait(); res.Failed {
				t.Fatalf("churn job failed: %s", res.Err)
			}
		}
		if n := tc.d.JournalSegments(); n > maxSeen {
			maxSeen = n
		}
	}
	// Give the janitor one more window to checkpoint the tail.
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.JournalSegments() > 3 {
		if time.Now().After(deadline) {
			t.Fatalf("JournalSegments = %d still above the bound 3", tc.d.JournalSegments())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The churn wrote ~1000 jobs × three records each through 4KiB segments —
	// roughly 40 segments' worth of frames. Without online compaction the
	// count grows monotonically to that; with it, the peak stays within the
	// threshold plus however much one janitor window (50ms) accumulates.
	if maxSeen > 25 {
		t.Fatalf("segment count peaked at %d with compact=3; online checkpointing is not bounding growth", maxSeen)
	}
}

// TestSpillRecoveryBySpillRef: a durable spill directory plus a checkpointed
// journal recovers cold jobs from their SpillRef records — re-placed cold,
// without reading the backlog's specs — and they still complete once workers
// arrive.
func TestSpillRecoveryBySpillRef(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	open := func() journal.Journal {
		w, err := journal.OpenWAL(journal.Options{Dir: walDir})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Life 1: spill a backlog, checkpoint (cutting SpillRef records), crash.
	d1 := New(Config{Journal: open(), SpillDir: spillDir, HotQueueJobs: 2, Shards: 1})
	const jobs = 40
	for i := 0; i < jobs; i++ {
		if _, err := d1.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("cold-%02d", i), NProcs: 1, Cmd: "noop", Args: []string{"a"}},
			Type: Sequential,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d1.SpilledJobs() < jobs-4 {
		t.Fatalf("SpilledJobs = %d, want most of %d", d1.SpilledJobs(), jobs)
	}
	if err := d1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	// Life 2: everything recovers; the cold backlog must come back cold
	// (SpillRef re-placement), not hydrated into memory.
	d2 := New(Config{Journal: open(), SpillDir: spillDir, HotQueueJobs: 2, Shards: 1})
	if err := d2.RecoveryError(); err != nil {
		t.Fatal(err)
	}
	rec := d2.RecoveredJobs()
	if len(rec) != jobs {
		t.Fatalf("recovered %d jobs, want %d", len(rec), jobs)
	}
	if got := d2.QueuedJobs(); got != jobs {
		t.Fatalf("QueuedJobs after recovery = %d, want %d", got, jobs)
	}
	if got := d2.SpilledJobs(); got < jobs-4 {
		t.Fatalf("SpilledJobs after recovery = %d; the cold backlog was hydrated instead of re-placed cold", got)
	}
	if _, err := d2.Submit(seqJob("cold-10")); err == nil {
		t.Fatal("duplicate of a recovered spilled job accepted")
	}

	addr, err := d2.Start()
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, d2, addr, 2)
	for _, h := range rec {
		if res := h.Wait(); res.Failed {
			t.Fatalf("recovered spilled job %s failed: %s", res.JobID, res.Err)
		}
	}
	d2.Close()

	// Life 3: all terminal; nothing recovers, and the spill store is swept.
	d3 := New(Config{Journal: open(), SpillDir: spillDir})
	defer d3.Close()
	if got := d3.RecoveredJobs(); len(got) != 0 {
		t.Fatalf("recovered %d jobs after completion, want 0", len(got))
	}
	if sp := d3.spillLoaded(); sp != nil && sp.Len() != 0 {
		t.Fatalf("spill store holds %d entries after all jobs completed, want 0 (the recovery sweep)", sp.Len())
	}
}

// runWorkers attaches n single-core workers running a universal no-op runner
// to an already-started dispatcher and tears them down with the test.
func runWorkers(t *testing.T, d *Dispatcher, addr string, n int) {
	t.Helper()
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := newTestWorker(fmt.Sprintf("sw%d", i), addr, runner)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestMillionQueuedJobsFlatRSS is the headline demo for the disk-backed cold
// queue: one million queued jobs held by a single dispatcher while resident
// memory stays far under 1 GiB, because beyond the hot window only the job ID
// and a spill reference stay on the heap — the specs live in the spill store.
// It submits real batches (so the duplicate reservation, depth accounting,
// and spill encoder all run at full scale) and reads VmRSS from the kernel.
// Gated behind JETS_SPILL_MILLION=1: it takes tens of seconds and ~10⁶ disk
// records, far too heavy for the default test run.
func TestMillionQueuedJobsFlatRSS(t *testing.T) {
	if os.Getenv("JETS_SPILL_MILLION") == "" {
		t.Skip("set JETS_SPILL_MILLION=1 to run the million-job spill demo")
	}
	const total = 1_000_000
	const batch = 10_000
	d := New(Config{HotQueueJobs: 1024, Shards: 4, SpillDir: t.TempDir()})
	defer d.Close()
	start := time.Now()
	jobs := make([]Job, batch)
	for off := 0; off < total; off += batch {
		for i := range jobs {
			jobs[i] = seqJob(fmt.Sprintf("m%07d", off+i))
		}
		if _, err := d.SubmitBatch(jobs); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if got := d.QueuedJobs(); got != total {
		t.Fatalf("QueuedJobs = %d, want %d", got, total)
	}
	spilled := d.SpilledJobs()
	if spilled < total*9/10 {
		t.Fatalf("SpilledJobs = %d, want the vast majority of %d cold", spilled, total)
	}
	debug.FreeOSMemory() // measure the live set, not collectable submit garbage
	rss := readRSSBytes(t)
	t.Logf("queued %d jobs in %v (%.0f jobs/s): %d spilled, %.1f MiB on disk, RSS %.1f MiB",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		spilled, float64(d.SpillBytes())/(1<<20), float64(rss)/(1<<20))
	if rss > 1<<30 {
		t.Fatalf("RSS = %.1f MiB with %d queued jobs, want well under 1 GiB", float64(rss)/(1<<20), total)
	}
}

// TestCompletedJobsFlatHeap is the completed-jobs twin of the test above: a
// campaign's completion log must not grow with its length. 300,000 noop jobs
// run to completion through real workers; once the first 50,000 have filled
// every bounded structure (the record sample, the job table's buckets), the
// other 250,000 may grow the live heap by no more than heapGrowthLimit. One
// retained metrics.JobRecord per job plus the ID string it pins is about
// 50 bytes a job — 12 MiB over the measured stretch.
func TestCompletedJobsFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("300,000 jobs through real workers")
	}
	const (
		total           = 300_000
		warm            = 50_000
		batch           = 5_000
		heapGrowthLimit = 3 << 20
	)
	tc := startCluster(t, 4, Config{})
	tc.runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	var atWarm int64
	jobs := make([]Job, batch)
	for off := 0; off < total; off += batch {
		if off == warm {
			atWarm = heap()
		}
		for i := range jobs {
			jobs[i] = seqJob(fmt.Sprintf("c%07d", off+i))
		}
		handles, err := tc.d.SubmitBatch(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range handles {
			if res := h.Wait(); res.Failed {
				t.Fatalf("job %s failed: %s", res.JobID, res.Err)
			}
		}
	}
	growth := heap() - atWarm
	tally, sample := tc.d.Tally(), tc.d.Records()
	t.Logf("heap in use grew %.2f MiB over the last %d of %d completed jobs; %d records kept",
		float64(growth)/(1<<20), total-warm, total, len(sample))
	if tally.Jobs != total || tc.d.Stats().JobsCompleted != total {
		t.Fatalf("tally counts %d jobs, stats %d, want %d", tally.Jobs, tc.d.Stats().JobsCompleted, total)
	}
	if len(sample) != recordSample {
		t.Fatalf("sample holds %d records, want %d", len(sample), recordSample)
	}
	for _, rec := range sample {
		// Jobs complete out of order, but only within the batch in flight.
		if rec.ID < fmt.Sprintf("c%07d", total-batch) {
			t.Fatalf("sample holds %s, not one of the most recent %d completions", rec.ID, recordSample)
		}
	}
	if growth > heapGrowthLimit {
		t.Fatalf("heap in use grew %.2f MiB after the first %d jobs, limit %.0f MiB",
			float64(growth)/(1<<20), warm, float64(heapGrowthLimit)/(1<<20))
	}
}

// readRSSBytes reads the process's resident set size from /proc/self/status.
func readRSSBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("parse VmRSS from %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// TestCheckpointRejournalsEphemeralSpill: with no spill directory the spill
// store dies with the process, so an online checkpoint reads every cold job's
// record back by its Loc and re-journals the spec in full; a journal-only
// restart then recovers every job with its spec. A record the checkpoint
// cannot read at the Loc it gathered is looked up again as the job is now:
// gone, in memory, or still cold and so lost.
func TestCheckpointRejournalsEphemeralSpill(t *testing.T) {
	walDir := t.TempDir()
	open := func() journal.Journal {
		w, err := journal.OpenWAL(journal.Options{Dir: walDir})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	d1 := New(Config{Journal: open(), HotQueueJobs: 2, Shards: 1})
	const jobs = 40
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("eph-%02d", i)
		if _, err := d1.Submit(Job{Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "noop", Args: []string{id}}}); err != nil {
			t.Fatal(err)
		}
	}
	if d1.SpilledJobs() != jobs-2 {
		t.Fatalf("SpilledJobs = %d, want %d", d1.SpilledJobs(), jobs-2)
	}

	d1.mu.Lock()
	hot, cold := d1.jobs["eph-00"], d1.jobs["eph-30"]
	d1.mu.Unlock()
	if r, err := d1.recheckCold(hot); err != nil || r == nil || r.Args[0] != "eph-00" {
		t.Fatalf("recheckCold of a job in memory = %+v, %v; want eph-00's record", r, err)
	}
	if _, err := d1.recheckCold(cold); err == nil {
		t.Fatal("recheckCold of a live cold job reported no error")
	}
	if r, err := d1.recheckCold(&liveJob{Handle: Handle{jobID: "gone"}}); r != nil || err != nil {
		t.Fatalf("recheckCold of a job no longer live = %+v, %v; want nothing", r, err)
	}

	if err := d1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	d1.Close() // strands every job, and removes the ephemeral spill directory

	d2 := New(Config{Journal: open(), Shards: 1})
	defer d2.Close()
	if err := d2.RecoveryError(); err != nil {
		t.Fatal(err)
	}
	if got := len(d2.RecoveredJobs()); got != jobs {
		t.Fatalf("recovered %d jobs, want %d", got, jobs)
	}
	d2.mu.Lock()
	defer d2.mu.Unlock()
	for id, lj := range d2.jobs {
		if lj.job == nil || len(lj.job.Spec.Args) != 1 || lj.job.Spec.Args[0] != id {
			t.Fatalf("job %s recovered without its spec: %+v", id, lj.job)
		}
	}
}

// TestCheckpointSurvivesDegradedSpill: a durable spill store that can no
// longer write does not fail every online checkpoint. A child process (the
// limit is per process) spills and steals away a backlog, so its spill
// segment holds more history than live jobs, then lowers its own
// RLIMIT_FSIZE and submits again: the spill segment hits the limit partway,
// while the WAL's small segments and the checkpoint's snapshot stay under it.
// CompactJournal must succeed there by re-journaling the cold specs in full,
// some of them from the store's pending buffer, and a restart here must
// recover every job with its spec.
func TestCheckpointSurvivesDegradedSpill(t *testing.T) {
	const live = 300
	if dir := os.Getenv("JETS_DEGRADED_SPILL_DIR"); dir != "" {
		degradedSpillChild(t, dir, live)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointSurvivesDegradedSpill$", "-test.count=1")
	cmd.Env = append(os.Environ(), "JETS_DEGRADED_SPILL_DIR="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}

	wal, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Journal: wal, SpillDir: filepath.Join(dir, "spill"), HotQueueJobs: 4, Shards: 1})
	defer d.Close()
	rec := d.RecoveredJobs()
	if len(rec) != live {
		t.Fatalf("recovered %d jobs, want %d (recovery error: %v)", len(rec), live, d.RecoveryError())
	}
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if len(args) != 1 || len(args[0]) != 2<<10 {
			return 1
		}
		return 0
	})
	startPipeWorkers(t, d, 2, runner)
	for _, h := range rec {
		if res := h.Wait(); res.Failed {
			t.Fatalf("recovered job %s failed: %s", res.JobID, res.Err)
		}
	}
}

// degradedSpillChild is TestCheckpointSurvivesDegradedSpill's child process.
func degradedSpillChild(t *testing.T, dir string, live int) {
	wal, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	spillDir := filepath.Join(dir, "spill")
	d := New(Config{Journal: wal, SpillDir: spillDir, HotQueueJobs: 4, Shards: 1})
	defer d.Close()
	arg := strings.Repeat("x", 2<<10)
	submit := func(prefix string, n int) []*Handle {
		var hs []*Handle
		for i := 0; i < n; i++ {
			h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprint(prefix, i), NProcs: 1, Cmd: "noop", Args: []string{arg}}})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		return hs
	}
	// The first backlog spills, then runs to its end on workers that leave
	// with the subtest, so its records are history in the spill segment.
	gone := submit("gone-", 400)
	t.Run("gone", func(t *testing.T) {
		runner := hydra.NewFuncRunner()
		runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
			return 0
		})
		startPipeWorkers(t, d, 2, runner)
		for _, h := range gone {
			if res := h.Wait(); res.Failed {
				t.Fatalf("job %s failed: %s", res.JobID, res.Err)
			}
		}
	})
	waitFor(t, func() bool { return d.Workers() == 0 })
	if err := d.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	var spilled int64
	segs, _ := filepath.Glob(filepath.Join(spillDir, "spill-*.seg"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			spilled = max(spilled, fi.Size())
		}
	}
	// The live backlog adds about 600 KiB to the spill segment, which passes
	// the limit, and the snapshot of it is about as large, which does not.
	limit := uint64(spilled + 256<<10)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
		t.Fatal(err)
	}
	submit("live-", live)
	if err := d.spillLoaded().Sync(); err == nil {
		t.Fatalf("the spill store wrote past RLIMIT_FSIZE %d", limit)
	}
	if err := d.CompactJournal(); err != nil {
		t.Fatalf("checkpoint with a degraded spill store: %v", err)
	}
}
