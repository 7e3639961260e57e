package simjets

import (
	"fmt"
	"time"

	"jets/internal/event"
	"jets/internal/metrics"
	"jets/internal/namd"
	"jets/internal/obs"
	"jets/internal/rem"
)

// This file contains one driver per evaluation figure. Each returns the
// rows/series the paper plots; cmd/jets-bench and bench_test.go print them.

// ---------------------------------------------------------------------------
// Fig. 6 — sequential task rate on the BG/P.

// RateRow is one Fig. 6 point.
type RateRow struct {
	Nodes      int
	Cores      int
	JobsPerSec float64
}

// Fig06SequentialRate measures the sustained no-op task launch rate for each
// allocation size, with one worker per core as in §6.1.1.
func Fig06SequentialRate(allocs []int, jobsPerWorker int, seed int64) []RateRow {
	var rows []RateRow
	for _, nodes := range allocs {
		sim := event.New(seed)
		prof := Surveyor(nodes)
		m := NewModel(sim, prof, prof.CoresPerNode)
		m.Start()
		total := jobsPerWorker * m.Workers()
		for i := 0; i < total; i++ {
			m.Submit(&SimJob{ID: fmt.Sprintf("noop%d", i), NProcs: 1, Sequential: true})
		}
		sim.Run(0)
		span := m.Span()
		rate := 0.0
		if span > 0 {
			rate = float64(m.Completed) / span.Seconds()
		}
		rows = append(rows, RateRow{Nodes: nodes, Cores: m.Workers(), JobsPerSec: rate})
	}
	return rows
}

// Fig06Ideal returns the "ideal" single point: the per-node process launch
// rate without JETS (pure fork/exec on all 4 cores, no communication).
func Fig06Ideal() float64 {
	const pureFork = 15 * time.Millisecond
	return 4 / pureFork.Seconds()
}

// ---------------------------------------------------------------------------
// Fig. 7 — MPI task launch, cluster setting; JETS vs shell-script baseline.

// UtilRow is one utilization measurement.
type UtilRow struct {
	Alloc       int
	Mode        string
	NProc       int
	Utilization float64
}

// Fig07Cluster runs the 1-second barrier-wait workload on the Breadboard
// profile: JETS with 4- and 8-process tasks, and the mpiexec shell-script
// baseline that can only use the entire allocation.
func Fig07Cluster(allocs []int, seed int64) []UtilRow {
	var rows []UtilRow
	for _, nodes := range allocs {
		for _, nproc := range []int{4, 8} {
			if nproc > nodes {
				continue
			}
			u := runMPIWorkload(Breadboard(nodes), nodes, nproc, 1, time.Second, 20, seed, false)
			rows = append(rows, UtilRow{Alloc: nodes, Mode: fmt.Sprintf("jets-%dproc", nproc), NProc: nproc, Utilization: u})
		}
		rows = append(rows, UtilRow{
			Alloc: nodes, Mode: "shell-script", NProc: nodes,
			Utilization: BaselineShellScript(nodes, 20, time.Second),
		})
	}
	return rows
}

// BaselineShellScript models the §6.1.2 baseline: a loop calling mpiexec
// over the whole allocation; every iteration pays mpiexec setup plus the
// ssh-launcher fan-out across all nodes before the task's useful second.
func BaselineShellScript(nodes, iterations int, think time.Duration) float64 {
	// mpiexec's ssh launcher starts proxies with bounded parallelism; the
	// effective startup grows with node count.
	waves := (nodes + SSHFanout - 1) / SSHFanout
	perIter := BaselineMPIExecSetup + time.Duration(waves)*SSHStartup + think
	total := time.Duration(iterations) * perIter
	return metrics.Utilization(think, iterations, nodes, nodes, total)
}

// runMPIWorkload runs a uniform batch of barrier-wait MPI jobs and returns
// Eq. (1) utilization. jobsPerNode controls batch depth; jitterPct adds
// per-job duration variance when nonzero.
func runMPIWorkload(prof Profile, nodes, nproc, ppn int, think time.Duration, jobsPerNode int, seed int64, swift bool) float64 {
	sim := event.New(seed)
	m := NewModel(sim, prof, 1)
	m.Start()
	count := nodes * jobsPerNode / nproc
	if count == 0 {
		count = 1
	}
	for i := 0; i < count; i++ {
		jitter := time.Duration(sim.Rand().Int63n(int64(think/20 + 1))) // up to 5%
		m.Submit(&SimJob{
			ID:           fmt.Sprintf("j%d", i),
			NProcs:       nproc,
			PPN:          ppn,
			Think:        think + jitter,
			SwiftManaged: swift,
		})
	}
	sim.Run(0)
	// Normalize to the cores the workload actually populates: PPN processes
	// per node.
	norm := ppn
	if norm < 1 {
		norm = 1
	}
	return m.Utilization(norm)
}

// ---------------------------------------------------------------------------
// Fig. 9 — MPI task launch on the BG/P.

// Fig09BGP sweeps allocation {256,512,1024} x task size {4,8,64} with 10-s
// tasks, one process per node, 20 tasks per node (§6.1.4).
func Fig09BGP(allocs, sizes []int, seed int64) []UtilRow {
	var rows []UtilRow
	for _, nodes := range allocs {
		for _, nproc := range sizes {
			if nproc > nodes {
				continue
			}
			u := runMPIWorkload(Surveyor(nodes), nodes, nproc, 1, 10*time.Second, 20, seed, false)
			rows = append(rows, UtilRow{Alloc: nodes, Mode: fmt.Sprintf("%d-proc", nproc), NProc: nproc, Utilization: u})
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Fig. 10 — faulty setting.

// FaultTrace is the Fig. 10 time series pair.
type FaultTrace struct {
	Alive   metrics.Series // "nodes available"
	Running metrics.Series // "running jobs"
	// KillTimes are the injection instants.
	KillTimes []time.Duration
}

// Fig10Faulty reproduces §6.1.5: a 32-worker allocation running sequential
// tasks while one randomly selected pilot job is terminated every interval.
func Fig10Faulty(workers int, interval, taskDur time.Duration, seed int64) FaultTrace {
	sim := event.New(seed)
	prof := Surveyor((workers + 3) / 4)
	prof.Nodes = workers // one worker per "node" for this test
	m := NewModel(sim, prof, 1)
	m.BootSpread = 500 * time.Millisecond
	m.Start()
	// Deep queue of sequential tasks so work never runs out.
	for i := 0; i < workers*200; i++ {
		m.Submit(&SimJob{ID: fmt.Sprintf("t%d", i), NProcs: 1, Sequential: true, Think: taskDur})
	}
	var trace FaultTrace
	var kill func()
	kill = func() {
		if !m.KillRandomAlive() {
			return
		}
		trace.KillTimes = append(trace.KillTimes, sim.Now())
		sim.After(interval, kill)
	}
	sim.After(interval, kill)
	// Stop the run shortly after the last possible kill.
	deadline := time.Duration(workers+2) * interval
	sim.RunUntil(deadline)
	trace.Alive = m.AliveSeries
	trace.Running = m.RunSeries
	return trace
}

// ---------------------------------------------------------------------------
// Fig. 11 — NAMD wall-time distribution (sampled, no cluster model needed).

// Fig11Bounds are the upper edges of Fig. 11's buckets, 5 s wide from 100 s
// to 170 s: bucket 0 holds what took at most 100 s, bucket i the samples in
// (Fig11Bounds()[i-1], Fig11Bounds()[i]], and the last one what took longer
// than 170 s.
func Fig11Bounds() []time.Duration {
	var bounds []time.Duration
	for b := 100 * time.Second; b <= 170*time.Second; b += 5 * time.Second {
		bounds = append(bounds, b)
	}
	return bounds
}

// Fig11Histogram draws n NAMD segment wall times and bins them as Fig. 11.
func Fig11Histogram(n int, seed int64) *obs.Hist {
	sim := event.New(seed)
	h := obs.NewHist("namd_segment_wall_seconds", "NAMD segment wall time (Fig. 11)", Fig11Bounds())
	for i := 0; i < n; i++ {
		h.Observe(namd.SampleWallTime(sim.Rand()))
	}
	return h
}

// ---------------------------------------------------------------------------
// Figs. 12 & 13 — NAMD batches on the BG/P.

// Fig12NAMD runs the §6.1.6 batches: for each allocation size, 6 jobs per
// node on average, 4 processes per job (one per node), NAMD-distributed
// durations, with the paper's per-job I/O volumes against PVFS.
func Fig12NAMD(allocs []int, seed int64) []UtilRow {
	var rows []UtilRow
	for _, nodes := range allocs {
		m, _ := runNAMDBatch(nodes, seed)
		rows = append(rows, UtilRow{Alloc: nodes, Mode: "namd-4proc", NProc: 4, Utilization: m.Utilization(1)})
	}
	return rows
}

func runNAMDBatch(nodes int, seed int64) (*Model, *event.Sim) {
	sim := event.New(seed)
	prof := Surveyor(nodes)
	m := NewModel(sim, prof, 1)
	m.Start()
	const procs = 4
	count := nodes * 6 / procs
	for i := 0; i < count; i++ {
		m.Submit(&SimJob{
			ID:         fmt.Sprintf("namd%d", i),
			NProcs:     procs,
			Think:      namd.SampleWallTime(sim.Rand()),
			ReadBytes:  namd.InputBytes,
			WriteBytes: namd.OutputBytes,
			MetaOps:    8, // 5 input + 3 output files
		})
	}
	sim.Run(0)
	return m, sim
}

// Fig13LoadLevel returns the busy-core series for the full-rack (1,024-node)
// NAMD batch of Fig. 13.
func Fig13LoadLevel(seed int64) *metrics.Series {
	m, _ := runNAMDBatch(1024, seed)
	return metrics.LoadLevel(m.AllRecords)
}

// ---------------------------------------------------------------------------
// Fig. 15 — Swift/Coasters synthetic workloads on Eureka.

// SwiftRow is one Fig. 15 measurement.
type SwiftRow struct {
	Alloc       int
	NodesPerJob int
	PPN         int
	Utilization float64
}

// Fig15Swift sweeps allocation {16,32,64} nodes x nodes-per-job x PPN with
// the 10-s synthetic task of §6.2.1, Swift-managed, binary read from GPFS
// per process.
func Fig15Swift(allocs, nodesPerJob, ppns []int, seed int64) []SwiftRow {
	var rows []SwiftRow
	for _, alloc := range allocs {
		for _, npj := range nodesPerJob {
			if npj > alloc {
				continue
			}
			for _, ppn := range ppns {
				u := runMPIWorkload(Eureka(alloc), alloc, npj, ppn, 10*time.Second, 8, seed, true)
				rows = append(rows, SwiftRow{Alloc: alloc, NodesPerJob: npj, PPN: ppn, Utilization: u})
			}
		}
	}
	return rows
}

// DispatcherSensitivity sweeps the central scheduler's per-message service
// time at the full-rack sequential workload, showing how the Fig. 6
// saturation rate tracks the dispatcher's speed — the design argument for
// JETS's "simple, reusable threading abstractions" (§3 principle 1): a
// slower scheduler caps the whole machine.
func DispatcherSensitivity(nodes int, services []time.Duration, seed int64) []RateRow {
	var rows []RateRow
	for _, svc := range services {
		sim := event.New(seed)
		prof := Surveyor(nodes)
		prof.DispatchService = svc
		m := NewModel(sim, prof, prof.CoresPerNode)
		m.Start()
		total := 20 * m.Workers()
		for i := 0; i < total; i++ {
			m.Submit(&SimJob{ID: fmt.Sprintf("n%d", i), NProcs: 1, Sequential: true})
		}
		sim.Run(0)
		rate := 0.0
		if span := m.Span(); span > 0 {
			rate = float64(m.Completed) / span.Seconds()
		}
		rows = append(rows, RateRow{Nodes: nodes, Cores: m.Workers(), JobsPerSec: rate})
	}
	return rows
}

// Fig15LocalStorage is the local-storage ablation: the Fig. 15 conditions
// with the application binary either re-read from GPFS at every process
// start or cached in node-local RAM (the JETS start-script optimization the
// production guidance in §6.2.1 recommends). Returns utilization.
func Fig15LocalStorage(alloc, nodesPerJob, ppn int, localBinary bool, seed int64) float64 {
	prof := Eureka(alloc)
	if localBinary {
		prof.BinaryBytes = 0 // cached node-locally: no shared-FS read
	}
	return runMPIWorkload(prof, alloc, nodesPerJob, ppn, 10*time.Second, 8, seed, true)
}

// ---------------------------------------------------------------------------
// Fig. 18 — REM dataflow through Swift.

// remDataflow simulates the asynchronous REM dataflow of Fig. 16: segment
// (i,j) runs when segment (i,j-1) and the round-(j-1) exchange with its
// neighbour have completed; exchanges are filesystem-bound tasks on the
// login node. Segments are data-dependent, not barrier-synchronized.
type remDataflow struct {
	m         *Model
	replicas  int
	rounds    int
	nprocs    int // nodes per segment
	ppn       int
	single    bool
	segDur    func() time.Duration
	segs      [][]bool // [replica][round] completed
	exchanged [][]bool // [round][pair] done
}

// Fig18REM runs the §6.2.2 series. single=true is the 18a configuration
// (replicas = 2x nodes, single-process segments, 4 exchanges); single=false
// is 18b (8 replicas, PPN 8, nodes/4 per segment, 6 exchanges).
func Fig18REM(allocs []int, single bool, seed int64) []UtilRow {
	var rows []UtilRow
	for _, alloc := range allocs {
		sim := event.New(seed)
		prof := Eureka(alloc)
		m := NewModel(sim, prof, 1)
		m.Start()

		df := &remDataflow{m: m, single: single}
		if single {
			df.replicas = 2 * alloc
			df.rounds = 5 // 4 exchanges => 5 segment columns
			df.nprocs = 1
			df.ppn = 1
		} else {
			df.replicas = 8
			df.rounds = 7 // 6 exchanges
			df.nprocs = alloc / 4
			if df.nprocs < 1 {
				df.nprocs = 1
			}
			df.ppn = 8
		}
		df.segDur = func() time.Duration { return namd.SampleWallTime(sim.Rand()) }
		df.segs = make([][]bool, df.replicas)
		for i := range df.segs {
			df.segs[i] = make([]bool, df.rounds)
		}
		df.exchanged = make([][]bool, df.rounds)
		for i := range df.exchanged {
			df.exchanged[i] = make([]bool, df.replicas)
		}
		for i := 0; i < df.replicas; i++ {
			df.submitSegment(i, 0)
		}
		sim.Run(0)
		mode, norm := "rem-mpi", 8 // 18b uses all 8 Eureka cores per node
		if single {
			mode, norm = "rem-single", 1 // 18a runs one process per node
		}
		rows = append(rows, UtilRow{Alloc: alloc, Mode: mode, NProc: df.nprocs * df.ppn, Utilization: m.Utilization(norm)})
	}
	return rows
}

func (df *remDataflow) submitSegment(replica, round int) {
	j := &SimJob{
		ID:           fmt.Sprintf("r%d-seg%d", replica, round),
		NProcs:       df.nprocs,
		PPN:          df.ppn,
		Think:        df.segDur(),
		Sequential:   df.single,
		SwiftManaged: true,
		ReadBytes:    namd.InputBytes,
		WriteBytes:   namd.OutputBytes,
		MetaOps:      8,
		OnDone: func(_ *SimJob, failed bool) {
			if failed {
				return
			}
			df.segmentDone(replica, round)
		},
	}
	df.m.Submit(j)
}

func (df *remDataflow) segmentDone(replica, round int) {
	df.segs[replica][round] = true
	if round == df.rounds-1 {
		return
	}
	// Find this replica's exchange partner for this round; if both segments
	// are complete, run the exchange on the login node, then start both
	// next segments.
	for _, p := range rem.Pairs(df.replicas, round) {
		if p[0] != replica && p[1] != replica {
			continue
		}
		a, b := p[0], p[1]
		if df.segs[a][round] && df.segs[b][round] && !df.exchanged[round][a] {
			df.exchanged[round][a] = true
			df.exchanged[round][b] = true
			df.runExchange(a, b, round)
		}
		return
	}
	// Unpaired replica this round (odd count): proceed directly.
	df.submitSegment(replica, round+1)
}

func (df *remDataflow) runExchange(a, b, round int) {
	m := df.m
	// The exchange is a small filesystem-bound script executed on the login
	// node (§6.2.2), freeing compute nodes for ready segments.
	m.login.Request(60*time.Millisecond, func() {
		ops := 4
		left := ops
		for i := 0; i < ops; i++ {
			m.FS.Open(func() {
				left--
				if left == 0 {
					df.submitSegment(a, round+1)
					df.submitSegment(b, round+1)
				}
			})
		}
	})
}
