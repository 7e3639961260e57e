package dispatch

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
	"jets/internal/worker"
)

// The dispatcher owns each worker's credit: a worker is parked when it
// registers and when the result of its task arrives, never because of side
// traffic such as a stage and its ack. These tests drive real worker agents
// over proto.Pipe.

// startPipeWorkers attaches n worker agents with staging caches to d over
// in-memory pipes and waits until all of them are parked.
func startPipeWorkers(t *testing.T, d *Dispatcher, n int, runner hydra.Runner) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	for i := 0; i < n; i++ {
		conn, served := proto.Pipe()
		w, err := worker.New(worker.Config{
			ID: fmt.Sprintf("w%d", i), Conn: conn, Runner: runner,
			CacheDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ServeConn(served)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	waitFor(t, func() bool { return d.IdleWorkers() == n })
}

// holdRunner registers "hold", which reports its first argument on started
// and blocks until release is closed.
func holdRunner() (r *hydra.FuncRunner, started chan string, release chan struct{}) {
	r = hydra.NewFuncRunner()
	started, release = make(chan string, 4), make(chan struct{})
	r.Register("hold", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		started <- args[0]
		select {
		case <-release:
		case <-ctx.Done():
		}
		return 0
	})
	r.Register("app", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	return r, started, release
}

// stayRunning fails the test if more than want jobs are running at any point
// in the next 100ms.
func stayRunning(t *testing.T, d *Dispatcher, want int, why string) {
	t.Helper()
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if n := d.RunningJobs(); n > want {
			t.Fatalf("%d jobs running, want %d: %s", n, want, why)
		}
	}
}

// TestCreditStageThenSubmitDoesNotDoubleBook: a stage reaching a parked
// worker is side traffic. Before the dispatcher owned the credit, the
// worker's ack was followed by a fresh work request, which parked the worker
// a second time while it ran a, and b was sent to it behind a.
func TestCreditStageThenSubmitDoesNotDoubleBook(t *testing.T) {
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runner, started, release := holdRunner()
	startPipeWorkers(t, d, 1, runner)

	d.StageFile("lib/app.so", []byte("bits"))
	ha, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "a", NProcs: 1, Cmd: "hold", Args: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	hb, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "b", NProcs: 1, Cmd: "hold", Args: []string{"b"}}})
	if err != nil {
		t.Fatal(err)
	}
	stayRunning(t, d, 1, "b was sent to the only worker while it still ran a")
	close(release)
	for _, h := range []*Handle{ha, hb} {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
}

// TestCreditGangAfterStageSkipsBusyWorker is the MPI form: after a stage,
// no rank of a gang may land on a worker that is still running a task, where
// it would stall the whole gang behind that task.
func TestCreditGangAfterStageSkipsBusyWorker(t *testing.T) {
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runner, started, release := holdRunner()
	startPipeWorkers(t, d, 2, runner)

	d.StageFile("lib/app.so", []byte("bits"))
	ha, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "a", NProcs: 1, Cmd: "hold", Args: []string{"a"}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	hg, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "g", NProcs: 2, Cmd: "app"}, Type: MPI})
	if err != nil {
		t.Fatal(err)
	}
	stayRunning(t, d, 1, "a 2-rank gang was seated with one worker still running a")
	close(release)
	if res := ha.Wait(); res.Failed {
		t.Fatalf("a failed: %s", res.Err)
	}
	res := hg.Wait()
	if res.Failed || len(res.Workers) != 2 || res.Workers[0] == res.Workers[1] {
		t.Fatalf("gang result %+v", res)
	}
}

// TestCreditTwoFramesPerSequentialJob counts the frames a sequential job
// costs on a worker link, through a relay between two proto.Pipes: a task
// and its result. No third frame asks for the next task.
func TestCreditTwoFramesPerSequentialJob(t *testing.T) {
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runner, _, _ := holdRunner()

	var mu sync.Mutex
	frames := map[proto.Kind]int{}
	relay := func(from, to *proto.Codec) {
		defer to.Close()
		for {
			env, err := from.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			frames[env.Kind]++
			mu.Unlock()
			if to.Send(env) != nil {
				return
			}
		}
	}
	conn, workerSide := proto.Pipe()
	dispSide, served := proto.Pipe()
	go relay(workerSide, dispSide)
	go relay(dispSide, workerSide)
	d.ServeConn(served)
	w, err := worker.New(worker.Config{ID: "w", Conn: conn, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-ran
	}()
	waitFor(t, func() bool { return d.IdleWorkers() == 1 })

	const jobs = 100
	for i := 0; i < jobs; i++ {
		h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: "app"}})
		if err != nil {
			t.Fatal(err)
		}
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %d failed: %s", i, res.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for kind, n := range frames {
		if kind != proto.KindRegister && kind != proto.KindRegistered {
			total += n
		}
	}
	if total != 2*jobs {
		t.Fatalf("%d frames for %d sequential jobs (%v), want 2 per job", total, jobs, frames)
	}
}
