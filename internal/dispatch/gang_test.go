package dispatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/obs"
	"jets/internal/pmi"
)

// connCounters reads the process-global PMI instruments, and the ranks' own
// connection counters, the way an operator does: through a registry.
type connCounters struct {
	accepted, sessions, redials       *obs.Counter
	mpiDialed, mpiAccepted, mpiWasted *obs.Counter
}

func newConnCounters() connCounters {
	reg := obs.NewRegistry()
	pmi.RegisterMetrics(reg)
	mpi.RegisterMetrics(reg)
	get := func(name string) *obs.Counter { return reg.Lookup(name).(*obs.Counter) }
	return connCounters{
		accepted:    get("jets_pmi_connections_accepted_total"),
		sessions:    get("jets_pmi_sessions_total"),
		redials:     get("jets_pmi_stale_redials_total"),
		mpiDialed:   get("jets_mpi_connections_dialed_total"),
		mpiAccepted: get("jets_mpi_connections_accepted_total"),
		mpiWasted:   get("jets_mpi_connections_discarded_total"),
	}
}

// barrierApp is the smallest MPI task: wire up, one barrier, exit.
func barrierApp(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
	comm, err := mpi.InitEnvFrom(env)
	if err != nil {
		fmt.Fprintln(stdout, "init:", err)
		return 3
	}
	defer comm.Close()
	if err := comm.Barrier(); err != nil {
		fmt.Fprintln(stdout, "barrier:", err)
		return 4
	}
	return 0
}

// TestWorkerKilledMidBarrierRetriesGang kills a worker while the other ranks
// of its job wait in the bootstrap barrier. The abort must cut the waiters
// loose, the retry must complete on the surviving workers (whose kept control
// connections the abort has just cut), and jobs after it must run as if
// nothing had happened.
func TestWorkerKilledMidBarrierRetriesGang(t *testing.T) {
	tc := startCluster(t, 4, Config{MaxJobRetries: 1, HeartbeatTimeout: 5 * time.Second})
	tc.runner.Register("barrier", barrierApp)
	// Warm up: every worker now holds a kept connection to the endpoint.
	warm, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "warm", NProcs: 4, Cmd: "barrier"}, Type: MPI})
	if err != nil {
		t.Fatal(err)
	}
	if res := warm.Wait(); res.Failed {
		t.Fatalf("warm-up failed: %+v", res)
	}

	var attempts atomic.Int32
	tc.runner.Register("victim", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if env["PMI_RANK"] == "0" && attempts.Add(1) == 1 {
			// First attempt: ranks 1 and 2 go into the fence, rank 0 never
			// does; its worker dies instead.
			time.Sleep(50 * time.Millisecond)
			for _, w := range tc.workers {
				if w.Busy() {
					w.Kill()
					break
				}
			}
		}
		return barrierApp(ctx, args, env, stdout)
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "hit", NProcs: 3, Cmd: "victim"}, Type: MPI})
		if err != nil {
			t.Error(err)
			return
		}
		if res := h.Wait(); res.Failed || res.Retries != 1 {
			t.Errorf("job hit by the worker loss: %+v, want success on the one retry", res)
		}
		for i := 0; i < 20; i++ {
			h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("after-%d", i), NProcs: 2 + i%2, Cmd: "barrier"}, Type: MPI})
			if err != nil {
				t.Error(err)
				return
			}
			if res := h.Wait(); res.Failed {
				t.Errorf("job %d after the loss: %+v", i, res)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hung: a rank is still blocked in a barrier that cannot release")
	}
	if st := tc.d.Stats(); st.WorkersLost != 1 || st.JobsRetried != 1 || st.JobsFailed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestGangSoak runs 5,000 MPI jobs through 8 in-process workers, 4 at a time,
// and checks that nothing accumulates: no failed job, no connection per job at
// the PMI endpoint, one rank-pair socket per tree edge and none lost to a dial
// race, and as many goroutines and descriptors at the end as after the first
// 100 jobs.
func TestGangSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("5,000-job soak")
	}
	const workers, jobs, outstanding = 8, 5000, 4
	tc := startCluster(t, workers, Config{})
	tc.runner.Register("barrier", barrierApp)
	pc := newConnCounters()
	accepted, sessions, redials := pc.accepted.Value(), pc.sessions.Value(), pc.redials.Value()
	dialed, paired, wasted := pc.mpiDialed.Value(), pc.mpiAccepted.Value(), pc.mpiWasted.Value()

	sizes := []int{2, 2, 4, 4, 8}
	ranks, edges := 0, 0
	slots := make(chan struct{}, outstanding)
	drain := func() {
		for i := 0; i < outstanding; i++ {
			slots <- struct{}{}
		}
		for i := 0; i < outstanding; i++ {
			<-slots
		}
	}
	// settled samples goroutines and descriptors with no job in flight; rank
	// sockets finish closing a moment after their job's result.
	settled := func() (goroutines, fds int) {
		drain()
		time.Sleep(50 * time.Millisecond)
		return runtime.NumGoroutine(), openFDs(t)
	}
	var g100, fd100 int
	for j := 0; j < jobs; j++ {
		if j == 100 {
			g100, fd100 = settled()
		}
		n := sizes[j%len(sizes)]
		ranks += n
		edges += n - 1
		slots <- struct{}{}
		h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("soak-%d", j), NProcs: n, Cmd: "barrier"}, Type: MPI})
		if err != nil {
			t.Fatal(err)
		}
		h.OnDone(func(res JobResult) {
			if res.Failed {
				t.Errorf("job %s failed: %s", res.JobID, res.Err)
			}
			<-slots
		})
	}
	gEnd, fdEnd := settled()

	st := tc.d.Stats()
	dialed, paired, wasted = pc.mpiDialed.Value()-dialed, pc.mpiAccepted.Value()-paired, pc.mpiWasted.Value()-wasted
	t.Logf("%d jobs (%d ranks): completed %d, failed %d; PMI connections accepted %d, sessions %d, stale redials %d; rank-pair connections dialed %d, accepted %d, discarded %d; goroutines %d -> %d, fds %d -> %d (after 100 jobs -> after %d)",
		jobs, ranks, st.JobsCompleted, st.JobsFailed, pc.accepted.Value()-accepted, pc.sessions.Value()-sessions,
		pc.redials.Value()-redials, dialed, paired, wasted, g100, gEnd, fd100, fdEnd, jobs)
	if st.JobsCompleted != jobs || st.JobsFailed != 0 {
		t.Errorf("completed %d failed %d, want %d and 0", st.JobsCompleted, st.JobsFailed, jobs)
	}
	if got := pc.sessions.Value() - sessions; got != int64(ranks) {
		t.Errorf("%d PMI sessions for %d ranks", got, ranks)
	}
	if got, max := pc.accepted.Value()-accepted, int64(workers)+pc.redials.Value()-redials; got > max {
		t.Errorf("PMI endpoint accepted %d connections, want at most workers + redials = %d", got, max)
	}
	if dialed != int64(edges) || paired != dialed || wasted != 0 {
		t.Errorf("rank-pair connections: %d dialed, %d accepted, %d discarded; want n-1 per job = %d, as many, 0", dialed, paired, wasted, edges)
	}
	const slack = 16
	if gEnd > g100+slack {
		t.Errorf("goroutines grew %d -> %d", g100, gEnd)
	}
	if fdEnd > fd100+slack {
		t.Errorf("open descriptors grew %d -> %d", fd100, fdEnd)
	}
}
