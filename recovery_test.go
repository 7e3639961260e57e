package jets

// Crash-recovery integration tests: a dispatcher process is killed with
// SIGKILL mid-workload and restarted over the same journal directory.
// Reconnecting pilot-job workers (held in the parent test process, so their
// execution counts survive the crash) must re-register against the restarted
// service and every submitted job must still run to completion.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/worker"
)

const crashJobs = 60

// helperCrashDispatcher is the child process: a journaled dispatcher with no
// local workers that announces its listen address on stdout, submits the
// workload, and waits — until the parent kills it. JETS_CRASH_HOT, when set,
// caps the hot queue window so most of the workload crashes with its specs in
// the on-disk spill store rather than in memory.
func helperCrashDispatcher() int {
	hot, _ := strconv.Atoi(os.Getenv("JETS_CRASH_HOT"))
	eng, err := core.NewEngine(core.Options{
		ListenAddr:   "127.0.0.1:0",
		DataDir:      os.Getenv("JETS_CRASH_DIR"),
		HotQueueJobs: hot,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		return 1
	}
	fmt.Printf("ADDR %s\n", eng.Addr())
	jobs := make([]dispatch.Job, crashJobs)
	for i := range jobs {
		id := fmt.Sprintf("crash-%03d", i)
		jobs[i] = dispatch.Job{
			Spec: hydra.JobSpec{
				JobID: id, NProcs: 1,
				Cmd: "crash-sleep", Args: []string{"20", id},
			},
			Type: dispatch.Sequential,
		}
	}
	handles, err := eng.SubmitBatch(jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash helper submit:", err)
		return 1
	}
	for _, h := range handles {
		h.Wait()
	}
	return 0
}

func TestCrashRecoveryKill9(t *testing.T) { runCrashRecoveryKill9(t, 0) }

// TestCrashRecoveryKill9Spilled is the same crash, but with a one-job hot
// window: nearly the whole workload's specs live in the spill store on both
// sides of the kill, so recovery must rebuild (and re-run) a cold backlog.
func TestCrashRecoveryKill9Spilled(t *testing.T) { runCrashRecoveryKill9(t, 1) }

func runCrashRecoveryKill9(t *testing.T, hot int) {
	if testing.Short() {
		t.Skip("forks a real dispatcher process")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"JETS_HELPER=crash-dispatcher",
		"JETS_CRASH_DIR="+dir,
		fmt.Sprintf("JETS_CRASH_HOT=%d", hot),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = s
			break
		}
	}
	if addr == "" {
		t.Fatalf("child never announced its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// The workers live in the parent so their per-job execution counts span
	// the crash. Reconnect is on: the same agents must serve both lives of
	// the dispatcher.
	runner := hydra.NewFuncRunner()
	var mu sync.Mutex
	execs := map[string]int{}
	var total atomic.Int64
	runner.Register("crash-sleep", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		ms, _ := strconv.Atoi(args[0])
		time.Sleep(time.Duration(ms) * time.Millisecond)
		mu.Lock()
		execs[args[1]]++
		mu.Unlock()
		total.Add(1)
		return 0
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w, err := worker.New(worker.Config{
			ID: fmt.Sprintf("crash-w%d", i), Cores: 1,
			DispatcherAddr:   addr,
			Runner:           runner,
			Reconnect:        true,
			ReconnectBackoff: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(wctx) }()
	}
	defer wg.Wait()
	defer wcancel()

	// Let the first life make real progress, then kill it without warning.
	deadline := time.Now().Add(30 * time.Second)
	for total.Load() < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("first life stalled at %d executions", total.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	cmd.Wait()

	// Second life: same address, same journal directory, this process.
	var eng *core.Engine
	deadline = time.Now().Add(10 * time.Second)
	for {
		eng, err = core.NewEngine(core.Options{ListenAddr: addr, DataDir: dir, HotQueueJobs: hot})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer eng.Close()
	if rerr := eng.RecoveryError(); rerr != nil {
		t.Fatalf("recovery error: %v", rerr)
	}
	recovered := eng.RecoveredJobs()
	if len(recovered) == 0 {
		t.Fatal("restart recovered no jobs")
	}
	if hot > 0 && eng.Dispatcher().Stats().JobsSpilled == 0 {
		t.Fatal("spill variant: second life recovered the backlog without spilling")
	}
	t.Logf("recovered %d jobs after %d pre-crash executions", len(recovered), total.Load())

	for _, h := range recovered {
		select {
		case <-h.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("recovered job %s never completed", h.JobID())
		}
		if res, ok := h.TryResult(); !ok || res.Failed {
			t.Fatalf("recovered job %s failed: %+v", h.JobID(), res)
		}
	}

	// Every job ran at least once across the two lives (at-least-once
	// execution; completion accounting is deduplicated by the journal).
	mu.Lock()
	for i := 0; i < crashJobs; i++ {
		id := fmt.Sprintf("crash-%03d", i)
		if execs[id] == 0 {
			t.Errorf("job %s never executed", id)
		}
	}
	mu.Unlock()

	// The reconnecting workers re-registered with the second life.
	deadline = time.Now().Add(5 * time.Second)
	for eng.Dispatcher().Workers() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers re-registered", eng.Dispatcher().Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// After a clean close, a fresh replay must show zero live jobs and
	// exactly one Completed record per job the second life owned.
	eng.Close()
	wal, err := journal.OpenWAL(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	live := map[string]bool{}
	completed := map[string]int{}
	err = wal.Replay(func(r journal.Record) error {
		switch r.Kind {
		case journal.Submitted:
			live[r.JobID] = true
		case journal.Completed:
			delete(live, r.JobID)
			completed[r.JobID]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("%d jobs still live in the journal after recovery: %v", len(live), keys(live))
	}
	for id, n := range completed {
		if n != 1 {
			t.Errorf("job %s completed %d times in the durable log", id, n)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
