package dispatch

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

// rawWorker registers a bare codec as a worker, bypassing the worker agent,
// so tests can script the wire protocol frame by frame.
func rawWorker(t *testing.T, addr, id string, coord []int) *proto.Codec {
	t.Helper()
	codec, err := proto.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { codec.Close() })
	codec.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: id, Coord: coord}})
	e, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != proto.KindRegistered {
		t.Fatalf("worker %s: register reply %+v", id, e)
	}
	return codec
}

// recvKind reads frames until one of the wanted kind arrives (skipping
// staged-file pushes etc.).
func recvKind(t *testing.T, codec *proto.Codec, kind proto.Kind) *proto.Envelope {
	t.Helper()
	for {
		e, err := codec.Recv()
		if err != nil {
			t.Fatalf("waiting for %s: %v", kind, err)
		}
		if e.Kind == kind {
			return e
		}
	}
}

// TestStaleResultFromWrongWorkerRejected is the regression test for the
// stale-result race: a result frame for a pending task ID must only be
// credited when it comes from the worker the task is pending ON. Before the
// fix, any connection could complete any pending task, so a late result from
// a prior faulted attempt's surviving worker completed the retried attempt's
// identically-named task.
func TestStaleResultFromWrongWorkerRejected(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	wa := rawWorker(t, addr, "wa", nil) // parked by its registration

	h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "j1", NProcs: 1, Cmd: "app"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	task := recvKind(t, wa, proto.KindTask)
	if task.Task.TaskID != "j1/seq" {
		t.Fatalf("task id %q", task.Task.TaskID)
	}

	// A different connection forges a result for wa's in-flight task.
	wb := rawWorker(t, addr, "wb", nil)
	wb.Send(&proto.Envelope{Kind: proto.KindResult, Result: &proto.Result{JobID: "j1", TaskID: "j1/seq", ExitCode: 0}})

	// The forged result must not complete the job.
	select {
	case <-h.Done():
		res, _ := h.TryResult()
		t.Fatalf("job completed from the wrong worker's result: %+v", res)
	case <-time.After(150 * time.Millisecond):
	}

	// The real worker's result still completes it.
	wa.Send(&proto.Envelope{Kind: proto.KindResult, Result: &proto.Result{JobID: "j1", TaskID: "j1/seq", ExitCode: 0}})
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never completed from the owning worker")
	}
	res, _ := h.TryResult()
	if res.Failed || len(res.Workers) != 1 || res.Workers[0] != "wa" {
		t.Fatalf("result %+v", res)
	}
}

// TestSubmitDuringShutdownRejected is the regression test for the
// shutdown/submit race: Shutdown must flag draining BEFORE waiting out the
// drain, so no submission can slip in while it blocks on running jobs.
func TestSubmitDuringShutdownRejected(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	release := make(chan struct{})
	tc.runner.Register("blocker", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return 0
	})
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "hold", NProcs: 1, Cmd: "blocker"}, Type: Sequential}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.RunningJobs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- tc.d.Shutdown(ctx) }()

	// While Shutdown blocks on the running job, submissions must start
	// failing. Pre-fix, draining was only set after Drain returned, so this
	// loop accepted jobs until the deadline.
	deadline = time.Now().Add(2 * time.Second)
	i := 0
	for {
		_, err := tc.d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("slip%d", i), NProcs: 1, Cmd: "blocker"},
			Type: Sequential,
		})
		i++
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted while Shutdown is draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSequentialJobTimeoutDefaulted is the regression test for the missing
// sequential wall limit: cfg.JobTimeout must bound sequential tasks too, not
// just the MPI branch, or a hung task wedges its worker forever.
func TestSequentialJobTimeoutDefaulted(t *testing.T) {
	tc := startCluster(t, 1, Config{JobTimeout: 100 * time.Millisecond})
	tc.runner.Register("hang", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		<-ctx.Done()
		return 1
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "hung", NProcs: 1, Cmd: "hang"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("sequential job ignored JobTimeout and hung")
	}
	if res, _ := h.TryResult(); !res.Failed {
		t.Fatalf("timed-out job reported success: %+v", res)
	}
}

// TestReconnectAfterBlipEvicted is the regression test for the reconnect
// race: a worker re-registering after a network blip must not be refused as
// a duplicate while its dead previous connection waits out the heartbeat
// timeout. A stale predecessor (silent for half the timeout) is evicted.
func TestReconnectAfterBlipEvicted(t *testing.T) {
	d := New(Config{HeartbeatTimeout: time.Second})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	old := rawWorker(t, addr, "node7", nil)
	_ = old
	// The connection goes silent — no heartbeats — simulating a network
	// blip. After HeartbeatTimeout/2 it is stale but not yet janitor-expired.
	time.Sleep(600 * time.Millisecond)

	// The worker reconnects under the same ID; rawWorker fails the test if
	// the register is answered with anything but KindRegistered (pre-fix it
	// got KindError "duplicate worker id").
	fresh := rawWorker(t, addr, "node7", nil)

	if n := d.Workers(); n != 1 {
		t.Fatalf("workers=%d after eviction", n)
	}
	if st := d.Stats(); st.WorkersJoined != 2 || st.WorkersLost != 1 {
		t.Fatalf("stats %+v", st)
	}

	// The admitted connection is live: registration parked it, so it
	// receives work.
	if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "post", NProcs: 1, Cmd: "app"}, Type: Sequential}); err != nil {
		t.Fatal(err)
	}
	recvKind(t, fresh, proto.KindTask)
}

// TestActiveDuplicateStillRejected pins the other side of the eviction rule:
// a duplicate register while the existing connection is heartbeating stays an
// error (see also TestDuplicateWorkerIDRejected, which goes through the full
// worker agent).
func TestActiveDuplicateStillRejected(t *testing.T) {
	d := New(Config{HeartbeatTimeout: 10 * time.Second})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rawWorker(t, addr, "w", nil)
	codec, err := proto.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "w"}})
	e, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != proto.KindError {
		t.Fatalf("live duplicate admitted: %+v", e)
	}
}

// TestNoWorkerInTwoShards checks the shard-partition invariant: every parked
// worker sits in exactly one shard's idle set, the shard its key maps to —
// for both coordinate-keyed and hash-keyed (coordinate-less) workers.
func TestNoWorkerInTwoShards(t *testing.T) {
	d := New(Config{Shards: 4, HeartbeatTimeout: 30 * time.Second})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 32
	for i := 0; i < n; i++ {
		var coord []int
		if i%3 != 0 { // every third worker exercises the hash fallback
			coord = []int{i % 8, (i / 8) % 8, 0}
		}
		rawWorker(t, addr, fmt.Sprintf("p%d", i), coord)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.IdleWorkers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("idle=%d want %d", d.IdleWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}

	d.lockAll()
	defer d.unlockAll()
	seen := map[*workerConn]int{}
	total := 0
	for _, s := range d.shards {
		for _, wc := range s.idle.appendTo(nil) {
			if prev, dup := seen[wc]; dup {
				t.Errorf("worker %s parked in shards %d and %d", wc.id, prev, s.idx)
			}
			seen[wc] = s.idx
			if wc.shard != s {
				t.Errorf("worker %s parked in shard %d but homed to %d", wc.id, s.idx, wc.shard.idx)
			}
			if want := d.shardFor(wc); want != wc.shard {
				t.Errorf("worker %s homed to shard %d, key maps to %d", wc.id, wc.shard.idx, want.idx)
			}
			total++
		}
	}
	if total != n {
		t.Errorf("parked=%d want %d", total, n)
	}
	used := map[int]bool{}
	for _, idx := range seen {
		used[idx] = true
	}
	if len(used) < 2 {
		t.Errorf("all workers landed in %d shard(s); keying is degenerate", len(used))
	}
}

// TestStealPreservesFIFOOrder: with shards > workers, most submissions land
// in shards with no idle workers and must be stolen; the per-submit sequence
// arbitration has to keep completion order equal to submission order anyway.
func TestStealPreservesFIFOOrder(t *testing.T) {
	tc := startCluster(t, 1, Config{Shards: 4})
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	tc.runner.Register("hold", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		<-release
		return 0
	})
	tc.runner.Register("ordered", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		order = append(order, args[0])
		mu.Unlock()
		return 0
	})
	// Occupy the only worker so the batch below queues across shards.
	hold, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "hold", NProcs: 1, Cmd: "hold"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.RunningJobs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hold job never started")
		}
		time.Sleep(time.Millisecond)
	}
	const batch = 12
	var handles []*Handle
	for i := 0; i < batch; i++ {
		h, err := tc.d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: "ordered",
				Args: []string{fmt.Sprintf("j%d", i)}},
			Type: Sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	close(release)
	hold.Wait()
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != batch {
		t.Fatalf("ran %d/%d", len(order), batch)
	}
	for i, id := range order {
		if want := fmt.Sprintf("j%d", i); id != want {
			t.Fatalf("completion order %v: position %d is %s, want %s", order, i, id, want)
		}
	}
}

// TestCrossShardGroupAssembly: an MPI job wider than any single shard's idle
// pool must assemble its group across shards under the multi-lock.
func TestCrossShardGroupAssembly(t *testing.T) {
	tc := startCluster(t, 8, Config{Shards: 4})
	tc.runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	// 8 workers with coord[0] = i%8 spread 2 per shard; a 6-wide job cannot
	// be seated by any one shard.
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "wide", NProcs: 6, Cmd: "noop"}, Type: MPI})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Failed {
		t.Fatalf("cross-shard job failed: %s", res.Err)
	}
	if len(res.Workers) != 6 {
		t.Fatalf("ran on %d workers", len(res.Workers))
	}
}

// TestDefaultShards pins the GOMAXPROCS derivation: a power of two, at least
// one, at most 16.
func TestDefaultShards(t *testing.T) {
	n := DefaultShards()
	if n < 1 || n > 16 || n&(n-1) != 0 {
		t.Fatalf("DefaultShards()=%d", n)
	}
	if New(Config{}).Shards() != n {
		t.Fatal("default config did not adopt DefaultShards")
	}
	if got := New(Config{Shards: 3}).Shards(); got != 3 {
		t.Fatalf("explicit shard count not honored: %d", got)
	}
}

// TestStealGroupOrderIsFCFS pins the group a stolen MPI job gets: the first n
// workers of takeGroup's candidate walk, which is its own shard's idle
// workers longest-idle first, then those of the other shards in index order,
// each shard's in the order they parked. Rank i runs on the i-th of them.
func TestStealGroupOrderIsFCFS(t *testing.T) {
	d := New(Config{Shards: 4})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Park order interleaves the shards (the coordinate plane picks the
	// shard). Shard 2 ends up with the most idle workers, so the job is
	// queued there; three cannot seat six ranks, so the pass steals.
	parks := []struct {
		id    string
		plane int
	}{
		{"s2-a", 2}, {"s1-a", 1}, {"s3-a", 3}, {"s2-b", 2},
		{"s0-a", 0}, {"s1-b", 1}, {"s2-c", 2}, {"s3-b", 3},
	}
	codecs := make(map[string]*proto.Codec)
	for i, p := range parks {
		codecs[p.id] = rawWorker(t, addr, p.id, []int{p.plane})
		deadline := time.Now().Add(5 * time.Second)
		for d.idleCount() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never parked", p.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "wide", NProcs: 6, Cmd: "noop"}, Type: MPI}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.idleCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers idle, want 2 once the group is seated", d.idleCount())
		}
		time.Sleep(time.Millisecond)
	}
	d.lockAll()
	var left []string
	for _, s := range d.shards {
		for _, wc := range s.idle.appendTo(nil) {
			left = append(left, wc.id)
		}
	}
	d.unlockAll()
	if !slices.Equal(left, []string{"s3-a", "s3-b"}) {
		t.Fatalf("left idle %v, want shard 3's s3-a, s3-b", left)
	}
	if got := d.stats.steals.Load(); got != 1 {
		t.Fatalf("steals = %d, want 1", got)
	}
	want := []string{"s2-a", "s2-b", "s2-c", "s0-a", "s1-a", "s1-b"}
	for rank, id := range want {
		task := recvKind(t, codecs[id], proto.KindTask)
		if task.Task.Rank != rank {
			t.Errorf("worker %s got rank %d, want %d", id, task.Task.Rank, rank)
		}
	}
}
