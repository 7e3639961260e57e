package simjets

import (
	"fmt"
	"testing"
	"time"

	"jets/internal/event"
)

func TestModelSequentialBatch(t *testing.T) {
	sim := event.New(1)
	prof := Breadboard(4)
	m := NewModel(sim, prof, 1)
	m.Start()
	for i := 0; i < 40; i++ {
		m.Submit(&SimJob{ID: fmt.Sprintf("s%d", i), NProcs: 1, Sequential: true, Think: 100 * time.Millisecond})
	}
	sim.Run(0)
	if m.Completed != 40 || m.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", m.Completed, m.Failed)
	}
	if m.QueueLen() != 0 || m.IdleWorkers() != 4 {
		t.Fatalf("queue=%d idle=%d", m.QueueLen(), m.IdleWorkers())
	}
	// 40 x 100ms on 4 workers: span at least 1s.
	if m.Span() < time.Second {
		t.Fatalf("span=%v", m.Span())
	}
}

func TestModelMPIJobUsesGroup(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(8), 1)
	m.Start()
	m.Submit(&SimJob{ID: "mpi", NProcs: 8, Think: time.Second})
	sim.Run(0)
	if m.Completed != 1 {
		t.Fatalf("completed=%d", m.Completed)
	}
	rec := m.Records[0]
	if rec.Procs != 8 {
		t.Fatalf("procs=%d", rec.Procs)
	}
	// MPI overhead: record duration exceeds think by wire-up and launch.
	if rec.Duration() <= time.Second {
		t.Fatalf("duration=%v; expected launch overhead on top of 1s", rec.Duration())
	}
}

func TestModelJobLargerThanAllocationNeverRuns(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(2), 1)
	m.Start()
	m.Submit(&SimJob{ID: "big", NProcs: 4, Think: time.Second})
	sim.Run(0)
	if m.Completed != 0 || m.QueueLen() != 1 {
		t.Fatalf("completed=%d queue=%d", m.Completed, m.QueueLen())
	}
}

func TestModelFIFOHeadOfLine(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(4), 1)
	m.Start()
	var order []string
	mk := func(id string, n int) *SimJob {
		return &SimJob{ID: id, NProcs: n, Think: 100 * time.Millisecond,
			OnDone: func(j *SimJob, failed bool) { order = append(order, j.ID) }}
	}
	m.Submit(mk("first-4proc", 4))
	m.Submit(mk("second-4proc", 4))
	m.Submit(mk("third-1proc", 1))
	sim.Run(0)
	if len(order) != 3 {
		t.Fatalf("order=%v", order)
	}
	if order[0] != "first-4proc" || order[1] != "second-4proc" {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestModelKillIdleWorker(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(4), 1)
	m.BootSpread = 0
	m.Start()
	sim.RunUntil(time.Second)
	if m.IdleWorkers() != 4 {
		t.Fatalf("idle=%d", m.IdleWorkers())
	}
	m.KillWorker(0)
	if m.IdleWorkers() != 3 {
		t.Fatalf("idle after kill=%d", m.IdleWorkers())
	}
	// A 4-proc job can no longer run.
	m.Submit(&SimJob{ID: "j", NProcs: 4, Think: time.Second})
	sim.Run(0)
	if m.Completed != 0 {
		t.Fatal("job ran on dead allocation")
	}
}

func TestModelKillBusyWorkerAbortsJob(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(4), 1)
	m.BootSpread = 0
	m.Start()
	failed := false
	m.Submit(&SimJob{ID: "victim", NProcs: 4, Think: 10 * time.Second,
		OnDone: func(j *SimJob, f bool) { failed = f }})
	sim.RunUntil(2 * time.Second) // job is mid-think
	if m.runningJobs != 1 {
		t.Fatalf("running=%d", m.runningJobs)
	}
	m.KillWorker(1)
	sim.Run(0)
	if !failed || m.Failed != 1 {
		t.Fatalf("failed=%v m.Failed=%d", failed, m.Failed)
	}
	// Surviving 3 workers can still run smaller jobs.
	m.Submit(&SimJob{ID: "after", NProcs: 3, Think: time.Second})
	sim.Run(0)
	if m.Completed != 1 {
		t.Fatalf("completed=%d", m.Completed)
	}
}

func TestFig06Shape(t *testing.T) {
	rows := Fig06SequentialRate([]int{16, 256, 1024}, 10, 1)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Rate grows with allocation and saturates above 7,000/s at full rack.
	if !(rows[0].JobsPerSec < rows[1].JobsPerSec && rows[1].JobsPerSec < rows[2].JobsPerSec) {
		t.Fatalf("rates not increasing: %+v", rows)
	}
	if rows[2].JobsPerSec < 7000 || rows[2].JobsPerSec > 9000 {
		t.Fatalf("full-rack rate %.0f outside paper range", rows[2].JobsPerSec)
	}
	if Fig06Ideal() <= 0 {
		t.Fatal("ideal rate nonpositive")
	}
}

func TestFig07Shape(t *testing.T) {
	rows := Fig07Cluster([]int{16, 64}, 1)
	get := func(alloc int, mode string) float64 {
		for _, r := range rows {
			if r.Alloc == alloc && r.Mode == mode {
				return r.Utilization
			}
		}
		t.Fatalf("missing %d/%s", alloc, mode)
		return 0
	}
	// JETS ~90%, far above the shell-script baseline, which decays with
	// allocation size.
	if u := get(64, "jets-4proc"); u < 0.85 {
		t.Fatalf("jets-4proc@64 = %.2f", u)
	}
	if get(64, "shell-script") > get(16, "shell-script") {
		t.Fatal("baseline should decay with allocation")
	}
	if get(64, "jets-4proc") < get(64, "shell-script")+0.2 {
		t.Fatal("JETS should greatly exceed the baseline")
	}
}

func TestFig09Shape(t *testing.T) {
	rows := Fig09BGP([]int{512, 1024}, []int{4, 8}, 1)
	get := func(alloc, nproc int) float64 {
		for _, r := range rows {
			if r.Alloc == alloc && r.NProc == nproc {
				return r.Utilization
			}
		}
		t.Fatalf("missing %d/%d", alloc, nproc)
		return 0
	}
	// The paper's claim: 4-proc degrades significantly past 512 nodes,
	// falling below the 8-proc curve.
	if get(1024, 4) >= get(512, 4)-0.02 {
		t.Fatalf("no 4-proc degradation: 512=%.3f 1024=%.3f", get(512, 4), get(1024, 4))
	}
	if get(1024, 4) >= get(1024, 8) {
		t.Fatalf("4-proc (%.3f) not below 8-proc (%.3f) at 1024", get(1024, 4), get(1024, 8))
	}
}

func TestFig10Shape(t *testing.T) {
	tr := Fig10Faulty(32, 10*time.Second, 5*time.Second, 1)
	if len(tr.KillTimes) != 32 {
		t.Fatalf("kills=%d", len(tr.KillTimes))
	}
	if tr.Alive.V[len(tr.Alive.V)-1] != 0 {
		t.Fatalf("final alive=%v", tr.Alive.V[len(tr.Alive.V)-1])
	}
	// Running jobs must track nodes available: at each sampled instant
	// after ramp-up, running <= alive, and mostly close to it.
	mid := 150 * time.Second // half the workers gone
	alive := tr.Alive.At(mid)
	running := tr.Running.At(mid)
	if running > alive {
		t.Fatalf("running %v exceeds alive %v", running, alive)
	}
	if alive > 0 && running < alive*0.5 {
		t.Fatalf("utilization collapsed: running=%v alive=%v", running, alive)
	}
}

func TestFig11Shape(t *testing.T) {
	h := Fig11Histogram(2000, 1)
	if h.Count() != 2000 {
		t.Fatalf("N=%d", h.Count())
	}
	counts := h.Buckets(nil)
	var bulk int64
	for i := 1; i <= 4; i++ { // 100-120 s region (5s buckets)
		bulk += counts[i]
	}
	if float64(bulk)/float64(h.Count()) < 0.5 {
		t.Fatalf("bulk fraction %.2f", float64(bulk)/float64(h.Count()))
	}
	if over := counts[len(counts)-1]; over != 0 {
		t.Fatalf("%d samples past 170 s", over)
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12NAMD([]int{256}, 1)
	if len(rows) != 1 {
		t.Fatalf("rows=%v", rows)
	}
	// "Utilization is near 90%".
	if rows[0].Utilization < 0.82 || rows[0].Utilization > 0.97 {
		t.Fatalf("util=%.3f not near 90%%", rows[0].Utilization)
	}
}

func TestFig13Shape(t *testing.T) {
	s := Fig13LoadLevel(1)
	if s.Len() == 0 {
		t.Fatal("empty series")
	}
	// Full rack, 4-proc jobs, 1 proc/node: peak busy procs near 1024.
	if s.Max() < 900 || s.Max() > 1024 {
		t.Fatalf("peak load %v", s.Max())
	}
	// Ends at zero (batch drains).
	if s.V[len(s.V)-1] != 0 {
		t.Fatalf("final load %v", s.V[len(s.V)-1])
	}
}

func TestFig15Shape(t *testing.T) {
	rows := Fig15Swift([]int{16}, []int{1, 4}, []int{1, 8}, 1)
	get := func(npj, ppn int) float64 {
		for _, r := range rows {
			if r.NodesPerJob == npj && r.PPN == ppn {
				return r.Utilization
			}
		}
		t.Fatalf("missing %d/%d", npj, ppn)
		return 0
	}
	// Increasing PPN reduces utilization (binary re-read per process), and
	// larger node counts per job reduce it further.
	if get(4, 8) >= get(4, 1) {
		t.Fatalf("PPN effect missing: ppn1=%.3f ppn8=%.3f", get(4, 1), get(4, 8))
	}
	if get(4, 8) >= get(1, 8) {
		t.Fatalf("nodes-per-job effect missing: npj1=%.3f npj4=%.3f", get(1, 8), get(4, 8))
	}
	for _, r := range rows {
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Fatalf("util out of range: %+v", r)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	single := Fig18REM([]int{4, 64}, true, 1)
	mpi := Fig18REM([]int{8, 64}, false, 1)
	// 18a: utilization decreases as the allocation grows.
	if single[1].Utilization >= single[0].Utilization {
		t.Fatalf("18a not decreasing: %.3f -> %.3f", single[0].Utilization, single[1].Utilization)
	}
	// 18b: utilization stays high (>= 0.90) and does not change
	// substantially (within ~4 points across the range).
	for _, r := range mpi {
		if r.Utilization < 0.90 {
			t.Fatalf("18b util %.3f at alloc %d", r.Utilization, r.Alloc)
		}
	}
	spread := mpi[0].Utilization - mpi[1].Utilization
	if spread < -0.05 || spread > 0.05 {
		t.Fatalf("18b not flat: %+v", mpi)
	}
	// MPI mode beats single-process mode at 64 nodes, as the paper reports.
	if mpi[1].Utilization <= single[1].Utilization {
		t.Fatalf("MPI (%.3f) should exceed single (%.3f) at 64", mpi[1].Utilization, single[1].Utilization)
	}
}

func TestFig15LocalStorageAblation(t *testing.T) {
	gpfs := Fig15LocalStorage(16, 4, 8, false, 1)
	local := Fig15LocalStorage(16, 4, 8, true, 1)
	if local <= gpfs {
		t.Fatalf("local storage did not help: gpfs=%.3f local=%.3f", gpfs, local)
	}
	if local < 0.95 {
		t.Fatalf("local-binary utilization %.3f; expected near-ideal", local)
	}
}

func TestDispatcherSensitivity(t *testing.T) {
	rows := DispatcherSensitivity(512, []time.Duration{
		20 * time.Microsecond, 80 * time.Microsecond, 320 * time.Microsecond,
	}, 1)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Slower dispatcher -> lower saturated rate, monotonically.
	if !(rows[0].JobsPerSec > rows[1].JobsPerSec && rows[1].JobsPerSec > rows[2].JobsPerSec) {
		t.Fatalf("rates not monotone in service time: %+v", rows)
	}
	// At 320 us/msg the cap is ~1/(3*320us) ~ 1040/s; verify the model
	// lands in that regime.
	if rows[2].JobsPerSec > 1500 {
		t.Fatalf("slow-dispatcher rate %.0f too high", rows[2].JobsPerSec)
	}
}

func TestBaselineShellScriptMonotone(t *testing.T) {
	prev := 1.0
	for _, nodes := range []int{4, 8, 16, 32, 64} {
		u := BaselineShellScript(nodes, 20, time.Second)
		if u >= prev {
			t.Fatalf("baseline not decreasing at %d: %.3f >= %.3f", nodes, u, prev)
		}
		prev = u
	}
}

func TestModelDeterminism(t *testing.T) {
	run := func() float64 {
		return runMPIWorkload(Breadboard(16), 16, 4, 1, time.Second, 10, 99, false)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestModelPanicsOnBadJob(t *testing.T) {
	sim := event.New(1)
	m := NewModel(sim, Breadboard(2), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-proc job accepted")
		}
	}()
	m.Submit(&SimJob{ID: "bad", NProcs: 0})
}
