package dispatch

// Tests for the disk-backed cold queue (spill.go): hot-window threshold
// accounting, duplicate-ID reservation against cold jobs, spilled-vs-unspilled
// completion equivalence, cold-aware federation stealing, bounded WAL segment
// counts under online checkpointing, and recovery of spilled jobs across a
// restart (by SpillRef, without rehydrating the backlog).

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
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
	// Steal everything through the exact path: StealQueued returns jobs
	// oldest-first, which is the order a worker would have launched them in.
	stolen := d.StealQueued(50, "order-probe")
	if len(stolen) != 50 {
		t.Fatalf("stole %d jobs, want 50", len(stolen))
	}
	for i, sj := range stolen {
		want := fmt.Sprintf("fifo-%02d", i)
		if sj.Spec.JobID != want {
			t.Fatalf("steal order[%d] = %s, want %s (cold tail broke FIFO)", i, sj.Spec.JobID, want)
		}
		if sj.Spec.Cmd == "" {
			t.Fatalf("stolen cold job %s lost its spec", sj.Spec.JobID)
		}
	}
	_ = handles
}

// TestStealQueuedReleasesSpilledEntries: migrating a cold job out ends the
// spill store's custody — the entry is removed and the ID becomes reusable.
func TestStealQueuedReleasesSpilledEntries(t *testing.T) {
	d := New(Config{HotQueueJobs: 1, Shards: 1})
	defer d.Close()
	for i := 0; i < 6; i++ {
		if _, err := d.Submit(seqJob(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	spilledBefore := d.SpilledJobs()
	if spilledBefore < 4 {
		t.Fatalf("SpilledJobs before steal = %d, want >= 4", spilledBefore)
	}
	stolen := d.StealQueued(6, "peer")
	if len(stolen) != 6 {
		t.Fatalf("stole %d, want 6", len(stolen))
	}
	if got := d.SpilledJobs(); got != 0 {
		t.Fatalf("SpilledJobs after stealing everything = %d, want 0", got)
	}
	if sp := d.spillLoaded(); sp != nil && sp.Len() != 0 {
		t.Fatalf("spill store holds %d entries after their jobs migrated, want 0", sp.Len())
	}
	if _, err := d.Submit(seqJob("m3")); err != nil {
		t.Fatalf("migrated cold ID not released: %v", err)
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
		t.Fatalf("spill store holds %d entries after all jobs completed, want 0 (RetainOnly sweep)", sp.Len())
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
