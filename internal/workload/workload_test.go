package workload

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
	"jets/internal/dispatch"
	"jets/internal/hydra"
)

func TestWorkloadAppsEndToEnd(t *testing.T) {
	runner := hydra.NewFuncRunner()
	RegisterApps(runner)
	eng, err := core.NewEngine(core.Options{LocalWorkers: 4, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var jobs []dispatch.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprint("noop", i), NProcs: 1, Cmd: NoopApp},
			Type: dispatch.Sequential,
		})
	}
	for i := 0; i < 3; i++ {
		jobs = append(jobs, dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprint("mpi", i), NProcs: 2, Cmd: BarrierApp, Args: []string{"10"}},
			Type: dispatch.MPI,
		})
	}
	jobs = append(jobs, dispatch.Job{
		Spec: hydra.JobSpec{JobID: "synth", NProcs: 4, Cmd: SyntheApp, Args: []string{"5"}},
		Type: dispatch.MPI,
	})
	rep, err := eng.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		for _, r := range rep.Results {
			if r.Failed {
				t.Logf("failed: %+v", r)
			}
		}
		t.Fatalf("failed=%d", rep.Failed())
	}
}

func TestBarrierAppBadArgs(t *testing.T) {
	runner := hydra.NewFuncRunner()
	RegisterApps(runner)
	eng, err := core.NewEngine(core.Options{LocalWorkers: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h, err := eng.Submit(dispatch.Job{
		Spec: hydra.JobSpec{JobID: "bad", NProcs: 1, Cmd: BarrierApp, Args: []string{"not-a-number"}},
		Type: dispatch.MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); !res.Failed {
		t.Fatal("bad duration accepted")
	}
}

// TestBarrierFailureIsReported kills rank 1 of a barrier-wait job between the
// two barriers. Rank 0 must come out of the second barrier with an error
// instead of waiting for a rank that is gone, and the job's output must say
// what failed.
func TestBarrierFailureIsReported(t *testing.T) {
	for _, app := range []struct {
		name string
		fn   hydra.AppFunc
	}{{BarrierApp, barrierWait}, {SyntheApp, synthetic}} {
		t.Run(app.name, func(t *testing.T) {
			runner := hydra.NewFuncRunner()
			runner.Register("victim", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
				if env["PMI_RANK"] == "1" {
					// What a Kill does to an in-process rank: its context ends.
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 20*time.Millisecond)
					defer cancel()
				}
				return app.fn(ctx, args, env, stdout)
			})
			var mu sync.Mutex
			var out bytes.Buffer
			eng, err := core.NewEngine(core.Options{LocalWorkers: 3, Runner: runner,
				OnOutput: func(taskID, stream string, data []byte) {
					mu.Lock()
					out.Write(data)
					mu.Unlock()
				}})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			h, err := eng.Submit(dispatch.Job{
				Spec: hydra.JobSpec{JobID: "hit", NProcs: 3, Cmd: "victim", Args: []string{"200"}},
				Type: dispatch.MPI,
			})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-h.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("hung: a rank is still waiting in a barrier for the rank that was killed")
			}
			if res := h.Wait(); !res.Failed {
				t.Fatalf("job with a killed rank succeeded: %+v", res)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := app.name + ": barrier: "; !strings.Contains(out.String(), want) || !strings.Contains(out.String(), "from rank 1") {
				t.Fatalf("job output %q does not report %q and the lost rank", out.String(), want)
			}
		})
	}
}

// TestZeroWaitHonoursCancelledContext: the launch-rate workloads wait 0 ms,
// which skips the timer, but a rank whose job was killed must still stop.
func TestZeroWaitHonoursCancelledContext(t *testing.T) {
	if !wait(context.Background(), 0) {
		t.Fatal("zero wait on a live context reported cancelled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if wait(ctx, 0) || wait(ctx, 50) {
		t.Fatal("wait ignored a cancelled context")
	}
	if testing.AllocsPerRun(100, func() { wait(context.Background(), 0) }) != 0 {
		t.Fatal("zero wait allocates")
	}
}
