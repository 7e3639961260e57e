package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/workload"
)

// gangBound is a per-job count bound for an n-rank job: intercept + slope*n.
type gangBound struct{ intercept, slope float64 }

func (b gangBound) at(n int) float64 { return b.intercept + b.slope*float64(n) }

// Gang-path count bounds (DESIGN.md "Gang-launch fast path", the per-rank
// ledger): what one barrier-wait job with 0 ms of waiting costs end to end on
// 8 local workers, as intercept + slope*ranks. Measured at 2 / 4 / 8 ranks:
//
//	allocs/job     90.0 / 161.2 / 302.9    bound 20 + 40n   (100 / 180 / 340)
//	heap B/job     7.7k / 14.4k / 28.9k    bound 600 + 3,900n (8.4k / 16.2k / 31.8k)
//	read calls     8.0 / 24.0 / 56.0       bound -8 + 9n    (10 / 28 / 64)
//	write calls    4.0 / 12.0 / 28.0       bound -2 + 4n    (6 / 14 / 30)
//
// The ranks write their tree messages and nothing else: 4(n - 1) writes in
// all, bound with a slack of 2 for the runtime's netpoll wakeups. Their
// put-and-fence requests and the releases reach the PMI endpoint of their own
// process through pipes, not sockets; over loopback TCP the same jobs measured
// 16.0 / 40.0 / 87.9 reads and 8.0 / 20.0 / 44.0 writes (6n - 4). Every other
// bound is the line through the 2- and 8-rank counts with 10% slack or more.
// While a rank still wrote a PMI finalize and said bye on
// each of its sessions, the same jobs measured 122.1 / 244.3 / 542.6
// allocations, 9.7k / 18.3k / 40.0k heap bytes, 20.5 / 51.9 / 116.9 reads and
// 12.0 / 30.0 / 66.0 writes (9n - 6), over every bound at every size. Before
// the ranks of a process shared one endpoint, with a listener per rank and a
// dial, an accept and two closes per tree edge, they measured 183.1 / 390.9 /
// 861.9 allocations and 12.4k / 25.4k / 55.6k heap bytes.
var (
	gangAllocs = gangBound{20, 40}
	gangBytes  = gangBound{600, 3900}
	gangReads  = gangBound{-8, 9}
	gangWrites = gangBound{-4 + 2, 4}
)

// gangDialsPerEdge bounds the rank-pair dials per tree edge per job once the
// process's idle links are warm: a dial is a link the pool did not have.
const gangDialsPerEdge = 0.01

// TestGangJobCounts is the count gate of the paper's headline path: 0 ms
// barrier-wait jobs at 2, 4 and 8 ranks through a closed window of 2 on 8
// local workers. Per job it counts heap allocations and bytes, read and write
// syscalls (from /proc/self/io, where it exists), rank-pair dials and
// rank-pair sessions. Counts, unlike rates, do not move with the machine's
// load. Every job must open exactly n-1 sessions (one per edge of the
// collectives' tree), and the process must end with the goroutines and
// descriptors it had after the warm-up.
func TestGangJobCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	if testing.Short() {
		t.Skip("runs 6,600 MPI jobs")
	}
	runner := hydra.NewFuncRunner()
	workload.RegisterApps(runner)
	reg := obs.NewRegistry()
	eng, err := NewEngine(Options{LocalWorkers: 8, Runner: runner, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dials := reg.Lookup("jets_mpi_connections_dialed_total").(*obs.Counter)
	sessions := reg.Lookup("jets_mpi_sessions_total").(*obs.Counter)
	_, _, haveIO := procIO()

	const warm, measured, window = 200, 2000, 2
	done := make(chan bool, window)
	onDone := func(r dispatch.JobResult) { done <- r.Failed }
	jobs := func(prefix string, n, count int) []dispatch.Job {
		js := make([]dispatch.Job, count)
		for i := range js {
			js[i] = dispatch.Job{Type: dispatch.MPI, Spec: hydra.JobSpec{JobID: fmt.Sprintf("%s%d-%d", prefix, n, i),
				NProcs: n, Cmd: workload.BarrierApp, Args: []string{"0"}}}
		}
		return js
	}
	closedLoop := func(js []dispatch.Job) {
		for i := range js {
			if i >= window && <-done {
				t.Fatal("a barrier-wait job failed")
			}
			h, err := eng.Submit(js[i])
			if err != nil {
				t.Fatal(err)
			}
			h.OnDone(onDone)
		}
		for i := 0; i < min(len(js), window); i++ {
			if <-done {
				t.Fatal("a barrier-wait job failed")
			}
		}
	}
	closedLoop(jobs("warm", 8, warm)) // the widest jobs warm every worker's links
	goroutines, fds := runtime.NumGoroutine(), countFDs(t)
	for _, n := range []int{2, 4, 8} {
		closedLoop(jobs("warm", n, warm))
		js := jobs("job", n, measured)
		runtime.GC()
		var before, after runtime.MemStats
		d0, s0 := dials.Value(), sessions.Value()
		r0, w0, _ := procIO()
		runtime.ReadMemStats(&before)
		closedLoop(js)
		runtime.ReadMemStats(&after)
		r1, w1, _ := procIO()
		per := func(d int64) float64 { return float64(d) / measured }
		allocs, bytes := per(int64(after.Mallocs-before.Mallocs)), per(int64(after.TotalAlloc-before.TotalAlloc))
		reads, writes := per(r1-r0), per(w1-w0)
		dialed, opened := per(dials.Value()-d0), per(sessions.Value()-s0)
		t.Logf("n=%d: %.1f allocs, %.0f heap B, %.1f reads, %.1f writes, %.4f dials, %.3f sessions per job",
			n, allocs, bytes, reads, writes, dialed, opened)
		check := func(what string, got float64, b gangBound) {
			if got > b.at(n) {
				t.Errorf("n=%d: %.1f %s per job, bound %.1f", n, got, what, b.at(n))
			}
		}
		check("allocations", allocs, gangAllocs)
		check("heap bytes", bytes, gangBytes)
		if haveIO {
			check("read syscalls", reads, gangReads)
			check("write syscalls", writes, gangWrites)
		}
		if edges := float64(n - 1); opened != edges {
			t.Errorf("n=%d: %.3f rank-pair sessions per job, want exactly %g", n, opened, edges)
		} else if dialed > gangDialsPerEdge*edges {
			t.Errorf("n=%d: %.4f rank-pair dials per job, want at most %g per edge", n, dialed, gangDialsPerEdge)
		}
	}
	// A rank's teardown ends with its job; what a worker does after its last
	// result (returning its rank goroutine) may lag by a moment.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		g, f := runtime.NumGoroutine(), countFDs(t)
		if g <= goroutines && f <= fds {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines %d -> %d, open descriptors %d -> %d over the measured jobs", goroutines, g, fds, f)
			break
		}
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(ents)
}
