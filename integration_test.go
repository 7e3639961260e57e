package jets

// Integration tests exercising the real-process path end to end: the test
// binary re-executes itself as the MPI application (hydra.ExecRunner), so a
// JETS-launched job consists of genuine OS processes that bootstrap through
// the PMI environment and wire up over real sockets — exactly what happens
// on a deployed cluster.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/mpi"
)

// TestMain diverts helper invocations before the test framework runs.
func TestMain(m *testing.M) {
	switch os.Getenv("JETS_HELPER") {
	case "":
		os.Exit(m.Run())
	case "mpi-app":
		os.Exit(helperMPIApp())
	case "seq-app":
		fmt.Println("sequential helper ran")
		os.Exit(0)
	case "crash-dispatcher":
		os.Exit(helperCrashDispatcher())
	default:
		fmt.Fprintln(os.Stderr, "unknown helper", os.Getenv("JETS_HELPER"))
		os.Exit(2)
	}
}

// helperMPIApp is the user executable: PMI bootstrap, barrier, allreduce.
func helperMPIApp() int {
	comm, err := mpi.InitEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "init:", err)
		return 1
	}
	defer comm.Close()
	if err := comm.Barrier(); err != nil {
		return 1
	}
	sum, err := comm.AllreduceInt64(mpi.OpSum, []int64{1})
	if err != nil || int(sum[0]) != comm.Size() {
		return 1
	}
	if comm.Rank() == 0 {
		fmt.Printf("real-process allreduce ok: %d ranks\n", comm.Size())
	}
	return 0
}

func startRealEngine(t *testing.T, workers int, onOutput func(string, string, []byte)) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: workers,
		Runner:       hydra.ExecRunner{},
		OnOutput:     onOutput,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestRealProcessSequentialJob(t *testing.T) {
	var mu sync.Mutex
	var out strings.Builder
	eng := startRealEngine(t, 2, func(taskID, stream string, data []byte) {
		mu.Lock()
		out.Write(data)
		mu.Unlock()
	})
	h, err := eng.Submit(dispatch.Job{
		Spec: hydra.JobSpec{
			JobID: "seq-real", NProcs: 1,
			Cmd: os.Args[0],
			Env: []string{"JETS_HELPER=seq-app"},
		},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if strings.Contains(s, "sequential helper ran") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("output %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRealProcessMPIJob(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	var mu sync.Mutex
	var out strings.Builder
	eng := startRealEngine(t, 4, func(taskID, stream string, data []byte) {
		mu.Lock()
		out.Write(data)
		mu.Unlock()
	})
	h, err := eng.Submit(dispatch.Job{
		Spec: hydra.JobSpec{
			JobID: "mpi-real", NProcs: 4,
			Cmd: os.Args[0],
			Env: []string{"JETS_HELPER=mpi-app"},
		},
		Type: dispatch.MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	if res.Failed {
		mu.Lock()
		t.Fatalf("job failed: %+v\noutput: %s", res, out.String())
	}
	if len(res.TaskResults) != 4 {
		t.Fatalf("results %d", len(res.TaskResults))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if strings.Contains(s, "real-process allreduce ok: 4 ranks") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("output %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRealProcessBatchOfMPIJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	eng := startRealEngine(t, 6, nil)
	var handles []*dispatch.Handle
	for i := 0; i < 4; i++ {
		h, err := eng.Submit(dispatch.Job{
			Spec: hydra.JobSpec{
				JobID: fmt.Sprintf("batch-%d", i), NProcs: 2 + i%2,
				Cmd: os.Args[0],
				Env: []string{"JETS_HELPER=mpi-app"},
			},
			Type: dispatch.MPI,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %d failed: %+v", i, res)
		}
	}
	st := eng.Dispatcher().Stats()
	if st.JobsCompleted != 4 || st.JobsFailed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRealProcessFailurePropagates(t *testing.T) {
	eng := startRealEngine(t, 1, nil)
	h, err := eng.Submit(dispatch.Job{
		Spec: hydra.JobSpec{
			JobID: "bad-helper", NProcs: 1,
			Cmd: os.Args[0],
			Env: []string{"JETS_HELPER=does-not-exist"},
		},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); !res.Failed {
		t.Fatal("bad helper reported success")
	}
}

// TestBatchThroughInputFile runs the paper's input format with real
// processes, covering the full cmd/jets code path.
func TestBatchThroughInputFile(t *testing.T) {
	if testing.Short() {
		t.Skip("forks real processes")
	}
	eng := startRealEngine(t, 4, nil)
	input := fmt.Sprintf("MPI: 3 %s\nMPI: 2 %s\nSEQ: %s\n", os.Args[0], os.Args[0], os.Args[0])
	// Inject helper env through job specs: ParseInput has no env syntax, so
	// submit parsed jobs with env added.
	jobs, err := core.ParseInput(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Type == dispatch.MPI {
			jobs[i].Spec.Env = []string{"JETS_HELPER=mpi-app"}
		} else {
			jobs[i].Spec.Env = []string{"JETS_HELPER=seq-app"}
		}
	}
	rep, err := eng.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("failed=%d: %+v", rep.Failed(), rep.Results)
	}
	if rep.Summary.Jobs != 3 {
		t.Fatalf("summary %+v", rep.Summary)
	}
}
