package jets

// Federated crash-recovery integration test (ISSUE 9): four dispatcher
// instances run as real child processes behind an in-parent work router; one
// instance is killed with SIGKILL mid-workload and restarted over the same
// journal directory and address. The router's re-attach reconciliation plus
// the instance's own WAL replay must complete every job exactly once per
// router handle, with the parent's routing-table journal ending clean.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/router"
	"jets/internal/worker"
)

const fedJobs = 60

// helperFederateInstance is the child process: one journaled dispatcher
// instance with no workers of its own. It announces its listen address on
// stdout and then blocks until killed. JETS_FED_ADDR pins the listen address
// (the restarted second life must rebind the first life's port, so it
// retries the bind while the kernel releases it). JETS_FED_HOT, when set,
// caps the hot queue window so the instance's backlog crashes with its specs
// in a durable spill store next to the journal.
func helperFederateInstance() int {
	jdir := os.Getenv("JETS_FED_DIR")
	wal, err := journal.OpenWAL(journal.Options{Dir: jdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "federate helper:", err)
		return 1
	}
	hot, _ := strconv.Atoi(os.Getenv("JETS_FED_HOT"))
	addr := os.Getenv("JETS_FED_ADDR")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var d *dispatch.Dispatcher
	var bound string
	deadline := time.Now().Add(10 * time.Second)
	for {
		d = dispatch.New(dispatch.Config{
			Addr:         addr,
			Instance:     os.Getenv("JETS_FED_NAME"),
			Journal:      wal,
			HotQueueJobs: hot,
			SpillDir:     filepath.Join(jdir, "spill"),
		})
		bound, err = d.Start()
		if err == nil {
			break
		}
		d.Close()
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "federate helper bind:", err)
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("ADDR %s\n", bound)
	select {} // the parent kills us; there is no clean exit
}

// startFedInstance forks one instance child and returns its address.
func startFedInstance(t *testing.T, name, dir, addr string, hot int) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"JETS_HELPER=federate-instance",
		"JETS_FED_NAME="+name,
		"JETS_FED_DIR="+dir,
		"JETS_FED_ADDR="+addr,
		fmt.Sprintf("JETS_FED_HOT=%d", hot),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var bound string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			bound = s
			break
		}
	}
	if bound == "" {
		cmd.Process.Kill()
		t.Fatalf("instance %s never announced its address: %v", name, sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return cmd, bound
}

func TestFederatedCrashRecoveryKill9(t *testing.T) { runFederatedCrashRecoveryKill9(t, 0) }

// TestFederatedCrashRecoveryKill9Spilled is the same federated crash with a
// one-job hot window per instance: the victim's backlog crashes with nearly
// every spec in the on-disk spill store, and its second life must recover the
// cold queue from there.
func TestFederatedCrashRecoveryKill9Spilled(t *testing.T) { runFederatedCrashRecoveryKill9(t, 1) }

func runFederatedCrashRecoveryKill9(t *testing.T, hot int) {
	if testing.Short() {
		t.Skip("forks real dispatcher processes")
	}
	const nInst = 4
	routerDir := t.TempDir()

	cmds := make([]*exec.Cmd, nInst)
	addrs := make([]string, nInst)
	dirs := make([]string, nInst)
	for i := 0; i < nInst; i++ {
		dirs[i] = t.TempDir()
		cmds[i], addrs[i] = startFedInstance(t, fmt.Sprintf("inst%d", i), dirs[i], "", hot)
	}
	defer func() {
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}()

	// Workers live in the parent so execution counts span the crash; each
	// pair is pinned to one instance and reconnects to it after the kill.
	runner := hydra.NewFuncRunner()
	var mu sync.Mutex
	execs := map[string]int{}
	var total atomic.Int64
	runner.Register("fed-sleep", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
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
	for i := 0; i < 2*nInst; i++ {
		w, err := worker.New(worker.Config{
			ID: fmt.Sprintf("fed-w%d", i), Cores: 1,
			DispatcherAddr:   addrs[i%nInst],
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

	// The router federates the four child processes over the wire, with its
	// own routing-table journal.
	rwal, err := journal.OpenWAL(journal.Options{Dir: routerDir})
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.New(router.Config{
		Peers:     addrs,
		Journal:   rwal,
		LoadEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	deadline := time.Now().Add(15 * time.Second)
	for r.ConnectedMembers() < nInst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d peers attached", r.ConnectedMembers(), nInst)
		}
		time.Sleep(5 * time.Millisecond)
	}

	handles := make([]*dispatch.Handle, fedJobs)
	for i := range handles {
		id := fmt.Sprintf("fed-%03d", i)
		handles[i], err = r.Submit(dispatch.Job{
			Spec: hydra.JobSpec{
				JobID: id, NProcs: 1,
				Cmd: "fed-sleep", Args: []string{"50", id},
			},
			Type: dispatch.Sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Let the fleet make real progress, then SIGKILL one instance.
	deadline = time.Now().Add(30 * time.Second)
	for total.Load() < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("federation stalled at %d executions", total.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim := 1
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait()
	t.Logf("killed %s after %d executions", addrs[victim], total.Load())

	// Second life: same journal directory, same address. The helper retries
	// the bind until the port frees up; the router's peer link re-attaches
	// and reconciles, and the pinned workers reconnect.
	cmds[victim], _ = startFedInstance(t, fmt.Sprintf("inst%d", victim), dirs[victim], addrs[victim], hot)

	for i, h := range handles {
		select {
		case <-h.Done():
		case <-time.After(90 * time.Second):
			t.Fatalf("job fed-%03d never completed after the crash", i)
		}
		if res, ok := h.TryResult(); !ok || res.Failed {
			t.Fatalf("job %s failed: %+v", res.JobID, res)
		}
	}

	// At-least-once execution across the two lives of the victim.
	mu.Lock()
	for i := 0; i < fedJobs; i++ {
		id := fmt.Sprintf("fed-%03d", i)
		if execs[id] == 0 {
			t.Errorf("job %s never executed", id)
		}
	}
	mu.Unlock()

	// Exactly-once completion in the routing-table journal: a clean close,
	// then a fresh replay must show zero live jobs and one Completed record
	// per job (re-placements after the crash journal Migrated, never a
	// second Submitted/Completed pair).
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := journal.OpenWAL(journal.Options{Dir: routerDir})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	live := map[string]bool{}
	completed := map[string]int{}
	err = wal.Replay(func(rec journal.Record) error {
		switch rec.Kind {
		case journal.Submitted:
			live[rec.JobID] = true
		case journal.Completed:
			delete(live, rec.JobID)
			completed[rec.JobID]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("%d jobs still live in the routing table after recovery: %v", len(live), keys(live))
	}
	for id, n := range completed {
		if n != 1 {
			t.Errorf("job %s completed %d times in the durable log", id, n)
		}
	}
}
