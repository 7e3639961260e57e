package dispatch

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
)

func TestSubmitBatch(t *testing.T) {
	tc := startCluster(t, 4, Config{})
	var mu sync.Mutex
	ran := map[string]bool{}
	tc.runner.Register("touch", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		mu.Lock()
		ran[args[0]] = true
		mu.Unlock()
		return 0
	})
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("b%d", i), NProcs: 1, Cmd: "touch",
				Args: []string{fmt.Sprintf("f%d", i)}},
			Type: Sequential,
		}
	}
	handles, err := tc.d.SubmitBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(jobs) {
		t.Fatalf("got %d handles for %d jobs", len(handles), len(jobs))
	}
	for _, h := range handles {
		res := h.Wait()
		if res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 20 {
		t.Fatalf("ran %d/20 jobs", len(ran))
	}
}

func TestSubmitBatchValidation(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	// A duplicate ID inside the batch rejects the whole batch atomically.
	jobs := []Job{
		{Spec: hydra.JobSpec{JobID: "dup", NProcs: 1, Cmd: "x"}, Type: Sequential},
		{Spec: hydra.JobSpec{JobID: "dup", NProcs: 1, Cmd: "x"}, Type: Sequential},
	}
	if _, err := tc.d.SubmitBatch(jobs); err == nil || !strings.Contains(err.Error(), "duplicate job id") {
		t.Fatalf("err = %v, want duplicate job id", err)
	}
	if got := tc.d.Stats().JobsSubmitted; got != 0 {
		t.Fatalf("rejected batch still submitted %d jobs", got)
	}
	// A sequential job with NProcs > 1 is invalid.
	bad := []Job{{Spec: hydra.JobSpec{JobID: "s", NProcs: 2, Cmd: "x"}, Type: Sequential}}
	if _, err := tc.d.SubmitBatch(bad); err == nil || !strings.Contains(err.Error(), "NProcs 1") {
		t.Fatalf("err = %v, want NProcs validation", err)
	}
}

func TestHandleOnDone(t *testing.T) {
	h := &Handle{jobID: "j"}
	var mu sync.Mutex
	var got []string
	h.OnDone(func(res JobResult) {
		mu.Lock()
		got = append(got, "before:"+res.JobID)
		mu.Unlock()
	})
	h.complete(JobResult{JobID: "j"})
	// Registered after completion: must fire immediately with the result.
	fired := make(chan struct{})
	h.OnDone(func(res JobResult) {
		mu.Lock()
		got = append(got, "after:"+res.JobID)
		mu.Unlock()
		close(fired)
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("late OnDone callback never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "before:j" || got[1] != "after:j" {
		t.Fatalf("callbacks = %v", got)
	}
}
