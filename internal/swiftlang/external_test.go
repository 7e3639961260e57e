package swiftlang

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/worker"
)

// externalRunner registers "barrier", an MPI app whose ranks all meet in a
// mini-MPI barrier, and "step", a sequential app that exits 0.
func externalRunner() *hydra.FuncRunner {
	runner := hydra.NewFuncRunner()
	runner.Register("barrier", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 1
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 1
		}
		return 0
	})
	runner.Register("step", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	return runner
}

// startExternalEngine builds the paper's Fig. 5 pipeline with workers that
// join over TCP, the way cmd/swiftrun -listen takes jets-worker processes:
// JETSExecutor -> engine with no local workers -> nworkers pilot agents ->
// mpiexec/proxies -> mini-MPI. Worker i reports coordinate plane i, so with
// shards == nworkers every shard owns exactly one worker.
func startExternalEngine(t *testing.T, nworkers, shards int) (*core.Engine, *JETSExecutor) {
	t.Helper()
	runner := externalRunner()
	exec := NewJETSExecutor()
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: 0,
		ListenAddr:   "127.0.0.1:0",
		Shards:       shards,
		OnOutput:     exec.OutputSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	exec.Bind(eng)
	if got := eng.Dispatcher().Shards(); got != shards {
		t.Fatalf("shards=%d want %d", got, shards)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		eng.Close()
		cancel()
		wg.Wait()
	})
	for i := 0; i < nworkers; i++ {
		w, err := worker.New(worker.Config{
			ID:             fmt.Sprintf("ext-%d", i),
			Coord:          []int{i, 0, 0},
			DispatcherAddr: eng.Addr(),
			Runner:         runner,
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
	deadline := time.Now().Add(10 * time.Second)
	for eng.WorkerTotal() < nworkers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", eng.WorkerTotal(), nworkers)
		}
		time.Sleep(time.Millisecond)
	}
	return eng, exec
}

// TestSwiftOnExternalWorkers runs a foreach of MPI apps through JETSExecutor
// on workers that joined over TCP, and checks the script's own output and
// the dispatcher's job counts.
func TestSwiftOnExternalWorkers(t *testing.T) {
	eng, exec := startExternalEngine(t, 4, 1)
	script := `
app () barrier (int n, int i) mpi n { "barrier" i; }
foreach i in [0:5] {
    barrier(3, i);
}
trace("all submitted");
`
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := RunScript(ctx, script, Config{Executor: exec, Stdout: &out, WorkDir: t.TempDir()}); err != nil {
		t.Fatalf("script: %v", err)
	}
	if !strings.Contains(out.String(), "all submitted") {
		t.Fatalf("out=%s", out.String())
	}
	st := eng.Dispatcher().Stats()
	if st.JobsCompleted != 6 || st.JobsFailed != 0 || st.TasksDispatched != 6*3 {
		t.Fatalf("completed %d failed %d tasks %d, want 6 jobs, 0 failed, 18 tasks",
			st.JobsCompleted, st.JobsFailed, st.TasksDispatched)
	}
}

// TestShardedDispatchOnExternalWorkers runs a script on four shards with
// one TCP-joined worker each, so the closing mpi 4 app can only assemble
// across all of them.
func TestShardedDispatchOnExternalWorkers(t *testing.T) {
	const nworkers = 4
	eng, exec := startExternalEngine(t, nworkers, nworkers)
	script := `
app () barrier (int n, int i) mpi n { "barrier" i; }
app () step (int i) { "step" i; }
foreach i in [0:5] {
    barrier(3, i);
}
foreach i in [0:23] {
    step(i);
}
barrier(4, 99);
`
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := RunScript(ctx, script, Config{Executor: exec, WorkDir: t.TempDir()}); err != nil {
		t.Fatalf("script: %v", err)
	}
	const jobs, tasks = 6 + 24 + 1, 6*3 + 24 + 4
	st := eng.Dispatcher().Stats()
	if st.JobsCompleted != jobs || st.JobsFailed != 0 || st.TasksDispatched != tasks {
		t.Fatalf("completed %d failed %d tasks %d, want %d jobs, 0 failed, %d tasks",
			st.JobsCompleted, st.JobsFailed, st.TasksDispatched, jobs, tasks)
	}
}
