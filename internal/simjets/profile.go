package simjets

import (
	"time"

	"jets/internal/event"
	"jets/internal/fsim"
)

// Profile calibrates the simulator to one of the paper's machines. The
// values are fitted to the published results (launch rates, utilizations)
// rather than measured microscopically; EXPERIMENTS.md records the fit.
type Profile struct {
	Name         string
	Nodes        int
	CoresPerNode int

	// DispatchService is the central JETS scheduler's per-message service
	// time (work-request handling, proxy dispatch). Its reciprocal bounds
	// the task rate: the Fig. 6 saturation at ~7,000 sequential jobs/s
	// implies ~2 messages/job at ~65 us each.
	DispatchService time.Duration

	// LoginCores bounds concurrent mpiexec work on the submit/login node;
	// MPIExecSpawn is the CPU cost of forking and running one mpiexec
	// process there. This is the resource whose congestion degrades
	// 4-processor tasks past 512 nodes in Fig. 9.
	LoginCores   int
	MPIExecSpawn time.Duration

	// ProxyLaunch is the per-process launch cost on a compute node (fork,
	// exec, loader); RTT is the worker-dispatcher round trip.
	ProxyLaunch time.Duration
	RTT         time.Duration

	// WireUpBase + NProcs*WireUpPerRank models PMI wire-up (put, barrier,
	// lazy connects) once all proxies are up. Linear in NProcs, as the live
	// path is: one PMI exchange per rank, and one rank-pair socket per edge
	// of the collectives' binomial tree, NProcs-1 a job (internal/mpi).
	WireUpBase    time.Duration
	WireUpPerRank time.Duration

	// NewSharedFS builds the machine's shared filesystem model (GPFS or
	// PVFS); nil for experiments that do no I/O.
	NewSharedFS func(*event.Sim) *fsim.SharedFS

	// SwiftOverhead is the per-task Swift/Coasters processing time
	// (dataflow engine + CoasterService transmission), applied only by the
	// Swift-mode experiments (§6.2).
	SwiftOverhead time.Duration

	// BinaryBytes is the application binary size read at each process
	// start when the binary lives on the shared filesystem (the Fig. 15
	// PPN effect). Zero means the binary is in node-local storage.
	BinaryBytes int
}

// Surveyor models the Blue Gene/P rack used in §6.1: 1,024 nodes x 4 cores,
// ZeptoOS, torus network, PVFS storage, JETS service on a login node.
func Surveyor(nodes int) Profile {
	return Profile{
		Name:            "surveyor-bgp",
		Nodes:           nodes,
		CoresPerNode:    4,
		DispatchService: 44 * time.Microsecond,
		LoginCores:      4,
		MPIExecSpawn:    180 * time.Millisecond,
		ProxyLaunch:     130 * time.Millisecond, // slow BG/P cores + worker script
		RTT:             900 * time.Microsecond,
		WireUpBase:      25 * time.Millisecond,
		WireUpPerRank:   8 * time.Millisecond,
		NewSharedFS:     fsim.PVFS,
	}
}

// Breadboard models the x86 cluster of §6.1.2: fast nodes, Ethernet, ssh
// reachable.
func Breadboard(nodes int) Profile {
	return Profile{
		Name:            "breadboard-x86",
		Nodes:           nodes,
		CoresPerNode:    8,
		DispatchService: 40 * time.Microsecond,
		LoginCores:      8,
		MPIExecSpawn:    18 * time.Millisecond,
		ProxyLaunch:     9 * time.Millisecond,
		RTT:             250 * time.Microsecond,
		WireUpBase:      6 * time.Millisecond,
		WireUpPerRank:   800 * time.Microsecond,
		NewSharedFS:     fsim.GPFS,
	}
}

// Eureka models the 100-node x86 cluster of §6.2 (two quad-core Xeons per
// node, GPFS) running the Swift/Coasters stack.
func Eureka(nodes int) Profile {
	p := Breadboard(nodes)
	p.Name = "eureka-x86"
	p.CoresPerNode = 8
	p.SwiftOverhead = 90 * time.Millisecond
	p.NewSharedFS = fsim.GPFS
	p.BinaryBytes = 12 << 20 // NAMD-scale binary read from GPFS per process
	return p
}

// SSHStartup is the per-node cost of starting a job through ssh, used by
// the shell-script baseline of Fig. 7 (ssh handshake + remote fork).
const SSHStartup = 70 * time.Millisecond

// SSHFanout is the ssh launcher's bounded parallelism in the baseline.
const SSHFanout = 4

// BaselineMPIExecSetup is the fixed mpiexec startup of the shell-script
// baseline before any node is contacted.
const BaselineMPIExecSetup = 250 * time.Millisecond
