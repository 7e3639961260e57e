package dispatch

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/proto"
	"jets/internal/worker"
)

// testCluster spins up a dispatcher and n workers sharing one in-process
// runner, the real-runtime equivalent of an allocation of pilot jobs.
type testCluster struct {
	d       *Dispatcher
	addr    string
	runner  *hydra.FuncRunner
	workers []*worker.Worker
	wg      sync.WaitGroup
	cancel  context.CancelFunc
}

func startCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	return startClusterOn(t, n, New(cfg))
}

// startClusterOn is startCluster for a dispatcher built but not yet started.
func startClusterOn(t *testing.T, n int, d *Dispatcher) *testCluster {
	t.Helper()
	tc := &testCluster{d: d, runner: hydra.NewFuncRunner()}
	addr, err := tc.d.Start()
	if err != nil {
		t.Fatal(err)
	}
	tc.addr = addr
	ctx, cancel := context.WithCancel(context.Background())
	tc.cancel = cancel
	for i := 0; i < n; i++ {
		w, err := worker.New(worker.Config{
			ID:             fmt.Sprintf("w%d", i),
			Host:           fmt.Sprintf("node%d", i),
			Cores:          4,
			Coord:          []int{i % 8, (i / 8) % 8, i / 64},
			DispatcherAddr: addr,
			Runner:         tc.runner,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.workers = append(tc.workers, w)
		tc.wg.Add(1)
		go func(w *worker.Worker) {
			defer tc.wg.Done()
			w.Run(ctx)
		}(w)
	}
	t.Cleanup(func() {
		tc.d.Close()
		cancel()
		tc.wg.Wait()
	})
	// Wait for all workers to register and park.
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.IdleWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers became idle", tc.d.IdleWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return tc
}

func TestSequentialJobs(t *testing.T) {
	tc := startCluster(t, 4, Config{})
	var mu sync.Mutex
	ran := map[string]bool{}
	tc.runner.Register("touch", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		ran[args[0]] = true
		mu.Unlock()
		fmt.Fprintf(stdout, "touched %s\n", args[0])
		return 0
	})
	var handles []*Handle
	for i := 0; i < 20; i++ {
		h, err := tc.d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("seq%d", i), NProcs: 1, Cmd: "touch",
				Args: []string{fmt.Sprintf("f%d", i)}},
			Type: Sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		res := h.Wait()
		if res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
		if len(res.Workers) != 1 {
			t.Fatalf("job %s workers=%v", res.JobID, res.Workers)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 20 {
		t.Fatalf("ran %d/20 tasks", len(ran))
	}
	st := tc.d.Stats()
	if st.JobsCompleted != 20 || st.JobsFailed != 0 || st.TasksDispatched != 20 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMPIJobEndToEnd(t *testing.T) {
	tc := startCluster(t, 8, Config{})
	tc.runner.Register("allreduce-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			fmt.Fprintf(stdout, "init: %v\n", err)
			return 1
		}
		defer comm.Close()
		out, err := comm.AllreduceInt64(mpi.OpSum, []int64{1})
		if err != nil {
			return 1
		}
		if int(out[0]) != comm.Size() {
			return 2
		}
		return 0
	})
	// Several concurrent MPI jobs of varying sizes, exercising worker-group
	// aggregation.
	sizes := []int{4, 8, 6, 2, 3}
	var handles []*Handle
	for i, n := range sizes {
		h, err := tc.d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("mpi%d", i), NProcs: n, Cmd: "allreduce-app"},
			Type: MPI,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		res := h.Wait()
		if res.Failed {
			t.Fatalf("job %d failed: %s (results %+v)", i, res.Err, res.TaskResults)
		}
		if len(res.TaskResults) != sizes[i] {
			t.Fatalf("job %d results=%d want %d", i, len(res.TaskResults), sizes[i])
		}
		if len(res.Workers) != sizes[i] {
			t.Fatalf("job %d ran on %d workers", i, len(res.Workers))
		}
	}
}

func TestMPIJobLargerThanAllocationQueues(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	tc.runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	h, err := tc.d.Submit(Job{
		Spec: hydra.JobSpec{JobID: "toobig", NProcs: 4, Cmd: "noop"},
		Type: MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, done := h.TryResult(); done {
		t.Fatal("4-proc job ran on a 2-worker allocation")
	}
	if tc.d.QueuedJobs() != 1 {
		t.Fatalf("queued=%d", tc.d.QueuedJobs())
	}
}

func TestApplicationFailurePropagates(t *testing.T) {
	tc := startCluster(t, 4, Config{})
	tc.runner.Register("failer", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if env["PMI_RANK"] == "1" {
			return 42
		}
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 3 // expected: abort tears down PMI
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 3
		}
		return 0
	})
	h, err := tc.d.Submit(Job{
		Spec: hydra.JobSpec{JobID: "f1", NProcs: 4, Cmd: "failer"},
		Type: MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if !res.Failed {
		t.Fatal("job with failing rank reported success")
	}
	if !strings.Contains(res.Err, "exited 42") && !strings.Contains(res.Err, "exited 3") {
		t.Fatalf("err=%q", res.Err)
	}
	// The allocation must remain usable.
	tc.runner.Register("ok", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int { return 0 })
	h2, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "after", NProcs: 1, Cmd: "ok"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if res := h2.Wait(); res.Failed {
		t.Fatalf("follow-up job failed: %s", res.Err)
	}
}

func TestWorkerDeathFailsJobAndFreesOthers(t *testing.T) {
	tc := startCluster(t, 4, Config{HeartbeatTimeout: 200 * time.Millisecond})
	release := make(chan struct{})
	tc.runner.Register("blocker", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 3
		}
		defer comm.Close()
		select {
		case <-release:
		case <-ctx.Done():
		}
		if err := comm.Barrier(); err != nil {
			return 3
		}
		return 0
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "doomed", NProcs: 4, Cmd: "blocker"}, Type: MPI})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job start, then kill one of its workers.
	deadline := time.Now().Add(5 * time.Second)
	for tc.d.RunningJobs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	tc.workers[0].Kill()
	close(release)
	res := h.Wait()
	if !res.Failed {
		t.Fatal("job survived worker death")
	}
	st := tc.d.Stats()
	if st.WorkersLost == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultedJobRetriesPrecise(t *testing.T) {
	tc := startCluster(t, 3, Config{MaxJobRetries: 3, HeartbeatTimeout: 5 * time.Second})
	var mu sync.Mutex
	runs := 0
	tc.runner.Register("victim", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if first {
			// Kill the hosting worker abruptly; the dispatcher should
			// requeue the job onto a surviving worker.
			for _, w := range tc.workers {
				if w.Busy() {
					w.Kill()
				}
			}
			// Block until the context is torn down with the worker.
			<-ctx.Done()
			return 1
		}
		return 0
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "retry-me", NProcs: 1, Cmd: "victim"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Failed {
		t.Fatalf("retried job failed: %+v", res)
	}
	if res.Retries != 1 {
		t.Fatalf("retries=%d want 1", res.Retries)
	}
	st := tc.d.Stats()
	if st.JobsRetried != 1 || st.JobsCompleted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHeartbeatTimeoutExpiresSilentWorker(t *testing.T) {
	d := New(Config{HeartbeatTimeout: 100 * time.Millisecond})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A raw codec that registers and then goes silent (no heartbeats).
	codec, err := proto.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "ghost"}})
	codec.Recv() // registered
	deadline := time.Now().Add(5 * time.Second)
	for d.Workers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker not expired; workers=%d", d.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := d.Stats(); st.WorkersLost != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLongTaskOutlivesHeartbeatTimeout: a task five heartbeat timeouts long
// completes on either kind of link, and no worker is lost. A local (pipe)
// link sends no heartbeats, so the janitor must pass it over; a TCP worker
// must heartbeat at the period its registered frame set.
func TestLongTaskOutlivesHeartbeatTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	for _, link := range []string{"local-pipe", "tcp"} {
		t.Run(link, func(t *testing.T) {
			d := New(Config{HeartbeatTimeout: timeout})
			addr, err := d.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			runner := hydra.NewFuncRunner()
			runner.Register("long", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
				select {
				case <-time.After(5 * timeout):
					return 0
				case <-ctx.Done():
					return 1
				}
			})
			cfg := worker.Config{ID: "w", DispatcherAddr: addr, Runner: runner}
			if link == "local-pipe" {
				conn, served := proto.Pipe()
				cfg.DispatcherAddr, cfg.Conn = "", conn
				d.ServeConn(served)
			}
			w, err := worker.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(ctx)
			}()
			defer wg.Wait()
			defer cancel()
			waitFor(t, func() bool { return d.IdleWorkers() == 1 })

			h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "long", NProcs: 1, Cmd: "long"}, Type: Sequential})
			if err != nil {
				t.Fatal(err)
			}
			if res := h.Wait(); res.Failed {
				t.Fatalf("job failed: %s", res.Err)
			}
			if st := d.Stats(); st.WorkersLost != 0 {
				t.Fatalf("%d workers lost", st.WorkersLost)
			}
		})
	}
}

func TestDuplicateWorkerIDRejected(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	codec, err := proto.Dial(tc.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "w0"}})
	e, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != proto.KindError {
		t.Fatalf("duplicate id accepted: %+v", e)
	}
}

func TestSubmitValidation(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "x", NProcs: 0, Cmd: "c"}}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "x", NProcs: 2, Cmd: "c"}, Type: Sequential}); err == nil {
		t.Error("sequential with 2 procs accepted")
	}
	tc.runner.Register("slow", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(50 * time.Millisecond)
		return 0
	})
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "dup", NProcs: 1, Cmd: "slow"}, Type: Sequential}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "dup", NProcs: 1, Cmd: "slow"}, Type: Sequential}); err == nil {
		t.Error("duplicate running job id accepted")
	}
}

func TestOutputRouting(t *testing.T) {
	var mu sync.Mutex
	var chunks []string
	tc := startCluster(t, 1, Config{OnOutput: func(taskID, stream string, data []byte) {
		mu.Lock()
		chunks = append(chunks, string(data))
		mu.Unlock()
	}})
	tc.runner.Register("printer", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		fmt.Fprintln(stdout, "hello from task")
		return 0
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "p", NProcs: 1, Cmd: "printer"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		joined := strings.Join(chunks, "")
		mu.Unlock()
		if strings.Contains(joined, "hello from task") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("output not routed: %q", joined)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDrainAndShutdown(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	tc.runner.Register("quick", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(10 * time.Millisecond)
		return 0
	})
	for i := 0; i < 6; i++ {
		if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("q%d", i), NProcs: 1, Cmd: "quick"}, Type: Sequential}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := tc.d.Stats(); st.JobsCompleted != 6 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "late", NProcs: 1, Cmd: "quick"}, Type: Sequential}); err == nil {
		t.Error("submit after shutdown accepted")
	}
}

func TestRecordsProduced(t *testing.T) {
	tc := startCluster(t, 2, Config{})
	tc.runner.Register("r", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(20 * time.Millisecond)
		return 0
	})
	h, _ := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "rec", NProcs: 2, Cmd: "r"}, Type: MPI})
	h.Wait()
	recs := tc.d.Records()
	if len(recs) != 1 {
		t.Fatalf("records=%d", len(recs))
	}
	if recs[0].Procs != 2 || recs[0].Duration() < 15*time.Millisecond {
		t.Fatalf("record %+v", recs[0])
	}
}

func TestStageFileReachesWorkers(t *testing.T) {
	dir := t.TempDir()
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runner := hydra.NewFuncRunner()
	w, err := worker.New(worker.Config{
		ID: "cacher", DispatcherAddr: addr, Runner: runner, CacheDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	d.StageFile("libapp.so", []byte("binary-bits"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := readFile(dir + "/libapp.so")
		if err == nil && string(data) == "binary-bits" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged file never appeared: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Tasks see JETS_CACHE pointing at the cache dir.
	got := make(chan string, 1)
	runner.Register("check-cache", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		got <- env["JETS_CACHE"]
		return 0
	})
	h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "cc", NProcs: 1, Cmd: "check-cache"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()
	select {
	case v := <-got:
		if v != dir {
			t.Fatalf("JETS_CACHE=%q want %q", v, dir)
		}
	default:
		t.Fatal("task did not run")
	}
}

func readFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// TestJSONv1PeerRejectedAtWorkerPort: the listener speaks one wire format.
// A peer whose first frame is JSON v1 — a worker registering, or a router
// attaching as the retired federation protocol did — is disconnected without
// a reply, nothing registers, and the dispatcher keeps serving: a worker on
// the real wire then joins and runs the whole batch.
func TestJSONv1PeerRejectedAtWorkerPort(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for name, payload := range map[string]string{
		"worker register":   `{"kind":"register","proto":1,"register":{"worker_id":"legacy","host":"n0","cores":1}}`,
		"federation attach": `{"kind":"peer-attach","proto":2,"peer_attach":{"peer_id":"router-0","outstanding":["j1"]}}`,
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 64))
		if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: read %d bytes, err %v; want the connection closed with no reply", name, n, err)
		}
		conn.Close()
	}
	if st := d.Stats(); d.Workers() != 0 || st.WorkersJoined != 0 {
		t.Fatalf("a JSON v1 peer registered: workers=%d joined=%d", d.Workers(), st.WorkersJoined)
	}

	runner := hydra.NewFuncRunner()
	var ran sync.Map
	runner.Register("mark", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		ran.Store(args[0], true)
		fmt.Fprintln(stdout, "output via", args[0])
		return 0
	})
	w, err := worker.New(worker.Config{ID: "modern", DispatcherAddr: addr, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait() // runs after cancel below (defers are LIFO)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()

	var handles []*Handle
	for i := 0; i < 40; i++ {
		h, err := d.Submit(Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("mix%d", i), NProcs: 1, Cmd: "mark",
				Args: []string{fmt.Sprintf("t%d", i)}},
			Type: Sequential,
		})
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
	count := 0
	ran.Range(func(_, _ any) bool { count++; return true })
	if count != 40 {
		t.Fatalf("ran %d/40 tasks", count)
	}
}

// TestPeerAttachRefusedAtWorkerPort: the worker port serves workers only. A
// router's peer-attach first frame, in the binary layout federation over the
// wire used before its kind code was retired, gets no reply: the connection
// closes, nothing registers, and no goroutine of the link is left.
func TestPeerAttachRefusedAtWorkerPort(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g0 := settledGoroutines()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	attach := []byte("\xbf\x0f\x00\brouter-1\x02\x02j1\x02j2\x80\xc2\xd7/") // code 15, seq 0
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(attach)))
	if _, err := conn.Write(append(hdr[:], attach...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes, err %v; want the connection closed with no reply", n, err)
	}
	conn.Close()
	goroutinesBackTo(t, g0, "after a refused peer-attach")
	if st := d.Stats(); d.Workers() != 0 || st.WorkersJoined != 0 {
		t.Fatalf("a peer-attach registered: workers=%d joined=%d", d.Workers(), st.WorkersJoined)
	}
}

// settledGoroutines is the goroutine count once it has held for 20 ms.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// goroutinesBackTo fails the test unless the goroutine count falls to want
// within 2 s.
func goroutinesBackTo(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// servePipe connects a fake peer to d over a proto.PipeConn. It returns the
// fake's codec and its end of the pipe, for bytes no codec would write.
func servePipe(t *testing.T, d *Dispatcher) (*proto.Codec, io.Writer) {
	t.Helper()
	end, served := proto.PipeConn()
	fake := proto.NewCodec(end)
	t.Cleanup(func() { fake.Close() })
	d.ServeConn(proto.NewCodec(served))
	return fake, end
}

// undecodable is a whole frame, length prefix included, of the given kind
// code whose body does not decode: magic, the kind code, seq 1, then a
// string length of 5 with one byte behind it.
func undecodable(code byte) []byte {
	return []byte{0, 0, 0, 5, 0xBF, code, 0x01, 0x05, 't'}
}

// TestUndecodableResultFailsItsJob: a worker frame whose body does not
// decode ends the link, whatever its kind. A result that cannot be credited
// to a task would otherwise leave the job pending forever on a worker that
// re-entered the idle set; the stream cannot be trusted after an output or
// heartbeat body that does not decode either. The job goes through the
// retry/fail path.
func TestUndecodableResultFailsItsJob(t *testing.T) {
	for _, tc := range []struct {
		kind string
		code byte
	}{{"result", 3}, {"output", 4}, {"heartbeat", 20}} {
		t.Run(tc.kind, func(t *testing.T) {
			d := New(Config{})
			if _, err := d.Start(); err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			fake, raw := servePipe(t, d)

			if err := fake.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "fake", Cores: 1}}); err != nil {
				t.Fatal(err)
			}
			if ack, err := fake.Recv(); err != nil || ack.Kind != proto.KindRegistered {
				t.Fatalf("registration ack: %+v, %v", ack, err)
			}
			h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "garbled", NProcs: 1, Cmd: "x"}, Type: Sequential})
			if err != nil {
				t.Fatal(err)
			}
			if task, err := fake.Recv(); err != nil || task.Kind != proto.KindTask {
				t.Fatalf("task: %+v, %v", task, err)
			}
			if _, err := raw.Write(undecodable(tc.code)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-h.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("job still pending after an undecodable %s frame", tc.kind)
			}
			if res := h.Wait(); !res.Failed {
				t.Fatalf("job reported success: %+v", res)
			}
		})
	}
}

// TestReaderExitUnblocksWriter: when the reader leaves its loop while the
// outbox's drain goroutine is blocked on a peer that has stopped reading,
// serveWorker closes the connection, which fails that write; it waits for
// no writer. A stage larger than the pipe's buffer keeps the drain blocked
// until something unblocks it; if only the peer's reading could, the
// dispatcher would hold the connection and both sides' goroutines for as
// long as the peer stayed silent.
func TestReaderExitUnblocksWriter(t *testing.T) {
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fake, raw := servePipe(t, d)

	if err := fake.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "fake", Cores: 1}}); err != nil {
		t.Fatal(err)
	}
	if ack, err := fake.Recv(); err != nil || ack.Kind != proto.KindRegistered {
		t.Fatalf("registration ack: %+v, %v", ack, err)
	}
	// The fake stops reading, so the writer blocks on the stage frame once
	// the pipe's buffer is full.
	d.StageFile("blob", make([]byte, 4*proto.PipeBuffer))
	// A result frame that does not decode ends the reader's loop.
	if _, err := raw.Write(undecodable(3)); err != nil {
		t.Fatal(err)
	}
	// Wait for the dispatcher to close its end (the fake's writes start to
	// fail), then drain the buffer: the stage frame must be cut short.
	// Without the close the fake waits forever, and reading earlier would
	// let the blocked writer finish the frame.
	recvErr := make(chan error, 1)
	go func() {
		for fake.Send(&proto.Envelope{Kind: proto.KindHeartbeat}) == nil {
			time.Sleep(time.Millisecond)
		}
		_, err := fake.Recv()
		recvErr <- err
	}()
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("the whole stage frame arrived on a connection the dispatcher dropped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dispatcher still holds the connection: its writer is blocked on a peer that stopped reading")
	}
}

// TestManyWorkersIdleChurn is the regression test for the idle-set
// complexity fix: a large pool cycles through park/dispatch/death and the
// idle accounting must stay exact throughout. Run at both shard extremes so
// the single-lock and sharded+stealing schedulers face the same churn.
func TestManyWorkersIdleChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			manyWorkersIdleChurn(t, shards)
		})
	}
}

func manyWorkersIdleChurn(t *testing.T, shards int) {
	const n = 64
	tc := startCluster(t, n, Config{HeartbeatTimeout: 30 * time.Second, Shards: shards})
	tc.runner.Register("spin", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		time.Sleep(time.Millisecond)
		return 0
	})
	// Saturating waves of MPI jobs of varied widths exercise Take() with
	// nontrivial group selections.
	var handles []*Handle
	for wave := 0; wave < 3; wave++ {
		for i, procs := range []int{1, 2, 4, 8, 16, 32} {
			h, err := tc.d.Submit(Job{
				Spec: hydra.JobSpec{JobID: fmt.Sprintf("w%d-j%d", wave, i), NProcs: procs, Cmd: "spin"},
				Type: MPI,
			})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	// Kill a third of the pool; the dispatcher must drop exactly those from
	// both the worker table and the idle set.
	for i := 0; i < n/3; i++ {
		tc.workers[i].Kill()
	}
	deadline := time.Now().Add(10 * time.Second)
	for tc.d.Workers() != n-n/3 || tc.d.IdleWorkers() != n-n/3 {
		if time.Now().After(deadline) {
			t.Fatalf("workers=%d idle=%d want %d", tc.d.Workers(), tc.d.IdleWorkers(), n-n/3)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The surviving pool still dispatches.
	h, err := tc.d.Submit(Job{
		Spec: hydra.JobSpec{JobID: "after-churn", NProcs: 16, Cmd: "spin"},
		Type: MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed {
		t.Fatalf("post-churn job failed: %s", res.Err)
	}
}
