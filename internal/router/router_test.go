package router

// Router-tier tests: consistent-hash placement, the federation-global
// duplicate check, steal rebalancing between instances, the 64-worker × 4-
// dispatcher churn test, and routing-table recovery.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/obs"
	"jets/internal/worker"
)

// fedCluster is N in-process dispatcher instances, each with its own worker
// pool sharing one runner, behind one Router — the in-process federation the
// core engine assembles, minus core, so tests can reach into members.
type fedCluster struct {
	r       *Router
	insts   []*dispatch.Dispatcher
	addrs   []string
	runner  *hydra.FuncRunner
	workers []*worker.Worker
	wg      sync.WaitGroup
	cancel  context.CancelFunc
}

// startFed brings up nInst instances with workersPer workers each. rcfg is
// the router config skeleton (Local is filled in here); dcfg the per-
// instance dispatcher config skeleton (Addr/Instance filled in here).
func startFed(t *testing.T, nInst, workersPer int, rcfg Config, dcfg dispatch.Config) *fedCluster {
	t.Helper()
	fc := &fedCluster{runner: hydra.NewFuncRunner()}
	for i := 0; i < nInst; i++ {
		c := dcfg
		c.Instance = fmt.Sprintf("inst%d", i)
		d := dispatch.New(c)
		addr, err := d.Start()
		if err != nil {
			t.Fatal(err)
		}
		fc.insts = append(fc.insts, d)
		fc.addrs = append(fc.addrs, addr)
	}
	rcfg.Local = fc.insts
	r, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	fc.r = r
	ctx, cancel := context.WithCancel(context.Background())
	fc.cancel = cancel
	for i := 0; i < nInst*workersPer; i++ {
		home := i % nInst
		w, err := worker.New(worker.Config{
			ID:             fmt.Sprintf("w%d", i),
			Host:           fmt.Sprintf("node%d", i),
			Cores:          1,
			Coord:          []int{i % 8, (i / 8) % 8, i / 64},
			DispatcherAddr: fc.addrs[home],
			Runner:         fc.runner,
		})
		if err != nil {
			t.Fatal(err)
		}
		fc.workers = append(fc.workers, w)
		fc.wg.Add(1)
		go func(w *worker.Worker) {
			defer fc.wg.Done()
			w.Run(ctx)
		}(w)
	}
	t.Cleanup(func() {
		fc.r.Close()
		for _, d := range fc.insts {
			d.Close()
		}
		cancel()
		fc.wg.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for _, d := range fc.insts {
		for d.IdleWorkers() < workersPer {
			if time.Now().After(deadline) {
				t.Fatalf("instance %s: %d/%d workers idle", d.Instance(), d.IdleWorkers(), workersPer)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return fc
}

func seqJob(id string) dispatch.Job {
	return dispatch.Job{
		Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "app", Args: []string{id}},
		Type: dispatch.Sequential,
	}
}

func TestRingDeterministicAndCovering(t *testing.T) {
	names := []string{"inst0", "inst1", "inst2", "inst3"}
	r1, r2 := newRing(names), newRing(names)
	counts := make([]int, len(names))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("job-%d", i)
		a, b := r1.owner(key), r2.owner(key)
		if a != b {
			t.Fatalf("owner(%q) nondeterministic: %d vs %d", key, a, b)
		}
		counts[a]++
	}
	// Consistent hashing with 64 vnodes/member is not uniform, but every
	// member must carry a real share of the keyspace.
	for i, c := range counts {
		if c < 500 { // 5% of 10k; expected ~2500
			t.Errorf("member %d owns only %d/10000 keys: %v", i, c, counts)
		}
	}
	// Single member owns everything.
	solo := newRing([]string{"only"})
	for i := 0; i < 100; i++ {
		if solo.owner(fmt.Sprintf("k%d", i)) != 0 {
			t.Fatal("single-member ring routed off-ring")
		}
	}
}

func TestRouterRoutesAndCompletesAcrossInstances(t *testing.T) {
	fc := startFed(t, 2, 2, Config{}, dispatch.Config{})
	var mu sync.Mutex
	ran := map[string]bool{}
	fc.runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		ran[args[0]] = true
		mu.Unlock()
		return 0
	})
	var handles []*dispatch.Handle
	for i := 0; i < 40; i++ {
		h, err := fc.r.Submit(seqJob(fmt.Sprintf("route-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	mu.Lock()
	n := len(ran)
	mu.Unlock()
	if n != 40 {
		t.Fatalf("ran %d/40", n)
	}
	// Hash placement must have used both instances for 40 distinct keys.
	for _, d := range fc.insts {
		if d.Stats().JobsCompleted == 0 {
			t.Fatalf("instance %s completed nothing; routing is not partitioning", d.Instance())
		}
	}
	if fc.r.LiveJobs() != 0 {
		t.Fatalf("routing table not empty: %d", fc.r.LiveJobs())
	}
}

func TestRouterSubmitBatch(t *testing.T) {
	fc := startFed(t, 2, 2, Config{}, dispatch.Config{})
	fc.runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	jobs := make([]dispatch.Job, 30)
	for i := range jobs {
		jobs[i] = seqJob(fmt.Sprintf("batch-%d", i))
	}
	handles, err := fc.r.SubmitBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	// A batch containing a duplicate is refused whole, and the rollback
	// leaves every non-duplicate ID submittable again.
	block := make(chan struct{})
	fc.runner.Register("blocker", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		<-block
		return 0
	})
	defer close(block)
	held, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "held", NProcs: 1, Cmd: "blocker"},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = held
	if _, err := fc.r.SubmitBatch([]dispatch.Job{seqJob("fresh-a"), seqJob("held"), seqJob("fresh-b")}); err == nil {
		t.Fatal("batch with duplicate accepted")
	}
	hs, err := fc.r.SubmitBatch([]dispatch.Job{seqJob("fresh-a"), seqJob("fresh-b")})
	if err != nil {
		t.Fatalf("rollback left IDs reserved: %v", err)
	}
	for _, h := range hs {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
}

// TestDuplicateIDAcrossInstancesRejected is the satellite-4 regression: the
// per-instance reservation map (PR 7) cannot see an ID that is live on a
// *different* instance, so the router's table must perform the federation-
// global check. pickOverride forces the two submissions toward different
// members — exactly the case where per-instance reservation alone accepts
// the duplicate and two handles race one completion.
func TestDuplicateIDAcrossInstancesRejected(t *testing.T) {
	fc := startFed(t, 2, 1, Config{StealInterval: -1}, dispatch.Config{})
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	fc.runner.Register("blocker", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		<-block
		return 0
	})
	defer unblock()

	target := 0
	fc.r.pickOverride = func(string) (int, bool) { return target, true }
	h, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "dup-x", NProcs: 1, Cmd: "blocker"},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The instance-level view: instance 1 has never heard of dup-x, so its
	// own reservation would happily accept it — the gap this fix closes.
	if _, ok := fc.insts[1].HandleOf("dup-x"); ok {
		t.Fatal("test setup broken: dup-x should live only on instance 0")
	}

	target = 1 // hash the duplicate toward the other member
	if _, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "dup-x", NProcs: 1, Cmd: "blocker"},
		Type: dispatch.Sequential,
	}); err == nil {
		t.Fatal("duplicate job id accepted across instances")
	}

	unblock()
	if res := h.Wait(); res.Failed {
		t.Fatalf("original job failed: %s", res.Err)
	}
	// Once the original completed, the ID is free again federation-wide.
	fc.runner.Register("quick", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	h2, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "dup-x", NProcs: 1, Cmd: "quick"},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatalf("completed ID still reserved: %v", err)
	}
	if res := h2.Wait(); res.Failed {
		t.Fatalf("resubmitted job failed: %s", res.Err)
	}
}

// TestDuplicateIDOfSpilledJobRejected: the federation-global duplicate check
// must also cover jobs whose specs have been spilled to an instance's cold
// queue tail — a cold job is as live as a hot one, on either side of the
// router (instance-level reservation and routing-table check).
func TestDuplicateIDOfSpilledJobRejected(t *testing.T) {
	fc := startFed(t, 2, 0, Config{StealInterval: -1},
		dispatch.Config{HotQueueJobs: 1, Shards: 1})
	target := 0
	fc.r.pickOverride = func(string) (int, bool) { return target, true }
	for i := 0; i < 4; i++ {
		if _, err := fc.r.Submit(dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("fill-%d", i), NProcs: 1, Cmd: "noop"},
			Type: dispatch.Sequential,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "cold-dup", NProcs: 1, Cmd: "noop"},
		Type: dispatch.Sequential,
	}); err != nil {
		t.Fatal(err)
	}
	if fc.insts[0].SpilledJobs() == 0 {
		t.Fatal("test setup broken: nothing spilled on instance 0")
	}
	// Same instance: the per-instance reservation must see the cold job.
	if _, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "cold-dup", NProcs: 1, Cmd: "noop"},
		Type: dispatch.Sequential,
	}); err == nil {
		t.Fatal("duplicate of a spilled job accepted on the same instance")
	}
	// Other instance: only the router's federation-global table can see it.
	target = 1
	if _, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "cold-dup", NProcs: 1, Cmd: "noop"},
		Type: dispatch.Sequential,
	}); err == nil {
		t.Fatal("duplicate of a spilled job accepted across instances")
	}
}

// TestStealRebalancesBacklog: everything is forced onto instance 0 (one
// worker, occupied), instance 1 (four workers) sits idle. The steal pass
// must migrate queued jobs over; all complete through their original
// handles.
func TestStealRebalancesBacklog(t *testing.T) {
	fc := startFed(t, 2, 0, Config{StealInterval: 5 * time.Millisecond, StealBatch: 8}, dispatch.Config{})
	// Asymmetric pools: one worker on inst0, four on inst1.
	addWorkers := func(inst, n int, idBase string) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		for i := 0; i < n; i++ {
			w, err := worker.New(worker.Config{
				ID: fmt.Sprintf("%s%d", idBase, i), Cores: 1,
				DispatcherAddr: fc.addrs[inst],
				Runner:         fc.runner,
			})
			if err != nil {
				t.Fatal(err)
			}
			fc.wg.Add(1)
			go func(w *worker.Worker) {
				defer fc.wg.Done()
				w.Run(ctx)
			}(w)
		}
		deadline := time.Now().Add(10 * time.Second)
		for fc.insts[inst].IdleWorkers() < n {
			if time.Now().After(deadline) {
				t.Fatalf("inst%d workers idle %d/%d", inst, fc.insts[inst].IdleWorkers(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	addWorkers(0, 1, "a")
	addWorkers(1, 4, "b")

	release := make(chan struct{})
	fc.runner.Register("hold", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return 0
	})
	fc.runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(time.Millisecond)
		return 0
	})

	fc.r.pickOverride = func(string) (int, bool) { return 0, true }
	hold, err := fc.r.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "hold", NProcs: 1, Cmd: "hold"},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fc.insts[0].RunningJobs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hold job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var handles []*dispatch.Handle
	for i := 0; i < 20; i++ {
		h, err := fc.r.Submit(seqJob(fmt.Sprintf("steal-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Stop forcing placements so the steal pass (and any re-place) is free.
	fc.r.pickOverride = nil

	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	close(release)
	if res := hold.Wait(); res.Failed {
		t.Fatalf("hold failed: %s", res.Err)
	}
	if got := fc.r.stats.steals.Load(); got == 0 {
		t.Fatal("no steals recorded; the idle instance never rebalanced the backlog")
	}
	if done := fc.insts[1].Stats().JobsCompleted; done == 0 {
		t.Fatal("idle instance completed nothing despite a 20-job backlog next door")
	}
}

// TestFederatedChurn64x4 is the tentpole's churn target: 4 dispatcher
// instances × 16 workers each, saturating waves of jobs, a quarter of the
// pool killed mid-flight, everything completing through router handles.
// Run under -race in CI's tier-1 pass. The shared registry must hold every
// instance's series (the satellite-1 collision surfaced here first).
func TestFederatedChurn64x4(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test is heavyweight")
	}
	const nInst, perInst = 4, 16
	reg := obs.NewRegistry()
	fc := startFed(t, nInst, perInst,
		Config{Obs: reg, StealInterval: 10 * time.Millisecond},
		dispatch.Config{Obs: reg, MaxJobRetries: 5, HeartbeatTimeout: 30 * time.Second})
	fc.runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(time.Millisecond)
		return 0
	})

	var handles []*dispatch.Handle
	submitWave := func(wave, n int) {
		for i := 0; i < n; i++ {
			h, err := fc.r.Submit(seqJob(fmt.Sprintf("churn-w%d-%d", wave, i)))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	submitWave(0, 60)
	// Kill a quarter of the pool, spread across instances, while the first
	// wave is in flight; retries plus rebalancing must absorb it.
	for i := 0; i < nInst*perInst; i += 4 {
		fc.workers[i].Kill()
	}
	submitWave(1, 60)
	submitWave(2, 60)
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed after churn: %s", res.JobID, res.Err)
		}
	}
	if fc.r.LiveJobs() != 0 {
		t.Fatalf("routing table not drained: %d", fc.r.LiveJobs())
	}
	// Every instance's instrumentation survived the shared registry.
	for i := 0; i < nInst; i++ {
		series := fmt.Sprintf("jets_jobs_completed_total{instance=%q}", fmt.Sprintf("inst%d", i))
		if reg.Lookup(series) == nil {
			t.Errorf("series %s missing from the shared registry", series)
		}
	}
	if reg.Lookup("jets_router_jobs_routed_total") == nil {
		t.Error("router series missing from the shared registry")
	}
}

// TestRouterRecoversRoutingTableFromJournal: a journaled router is closed
// with jobs still live (no workers); a second router over the same WAL and
// fresh instances recovers them, and they complete once workers arrive.
func TestRouterRecoversRoutingTableFromJournal(t *testing.T) {
	dir := t.TempDir()
	openWAL := func() journal.Journal {
		w, err := journal.OpenWAL(journal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Life 1: no workers, jobs stay queued; Close strands the handles
	// without journaling completions.
	d1 := dispatch.New(dispatch.Config{Instance: "inst0"})
	r1, err := New(Config{Local: []*dispatch.Dispatcher{d1}, Journal: openWAL()})
	if err != nil {
		t.Fatal(err)
	}
	var firstHandles []*dispatch.Handle
	for i := 0; i < 6; i++ {
		h, err := r1.Submit(seqJob(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		firstHandles = append(firstHandles, h)
	}
	r1.Close()
	d1.Close()
	for _, h := range firstHandles {
		if res := h.Wait(); !res.Failed {
			t.Fatal("stranded handle did not fail on close")
		}
	}

	// Life 2: same WAL, a fresh instance with workers this time. The app is
	// registered before any worker starts — recovery resubmits at New, and
	// the jobs run the moment workers register.
	runner := hydra.NewFuncRunner()
	runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	d2 := dispatch.New(dispatch.Config{Instance: "inst0"})
	addr, err := d2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r2, err := New(Config{Local: []*dispatch.Dispatcher{d2}, Journal: openWAL()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for i := 0; i < 2; i++ {
		w, err := worker.New(worker.Config{
			ID: fmt.Sprintf("w%d", i), Cores: 1,
			DispatcherAddr: addr,
			Runner:         runner,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w *worker.Worker) {
			defer wg.Done()
			w.Run(ctx)
		}(w)
	}
	if err := r2.RecoveryError(); err != nil {
		t.Fatalf("recovery error: %v", err)
	}
	rec := r2.RecoveredJobs()
	if len(rec) != 6 {
		t.Fatalf("recovered %d jobs, want 6", len(rec))
	}
	for _, h := range rec {
		select {
		case <-h.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("recovered job %s never completed", h.JobID())
		}
		if res, ok := h.TryResult(); !ok || res.Failed {
			t.Fatalf("recovered job %s failed: %+v", h.JobID(), res)
		}
	}
	if r2.LiveJobs() != 0 {
		t.Fatalf("routing table not drained after recovery: %d", r2.LiveJobs())
	}
}
