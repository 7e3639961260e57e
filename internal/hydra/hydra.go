// Package hydra reimplements the role MPICH2's Hydra process manager plays
// in JETS. The paper's key enabling change was a Hydra bootstrap mode,
// launcher=manual, in which mpiexec does not launch proxies itself: it
// reports the proxy commands and keeps providing its ordinary network
// services (PMI, stdout routing), so that an external scheduler — JETS —
// can place the proxies on whatever nodes it has available.
//
// Here, MPIExec is the background mpiexec process: starting one yields a
// set of per-rank proxy task specifications (ProxyTasks) that the JETS
// dispatcher sends to workers. Every MPIExec of the process is served at one
// control endpoint (a pmi.Service), which tells their ranks apart by KVS
// name. Each worker executes the proxy (RunProxy in proxy.go), which dials
// back to the control endpoint, sets up the PMI environment, and launches the
// user process. A job's end is observed through its workers' results, not
// through PMI finalization: a rank that finalizes on a kept connection says
// nothing to the endpoint.
package hydra

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/mpi"
	"jets/internal/obs"
	"jets/internal/pmi"
	"jets/internal/proto"
)

// Package-level instrumentation over every mpiexec instance in the process.
// The counters work detached; RegisterMetrics exports them (and the PMI
// layer's) through a registry.
var (
	startsTotal = obs.NewCounter("jets_mpiexec_starts_total",
		"mpiexec instances started (one per MPI job attempt)")
	abortsTotal = obs.NewCounter("jets_mpiexec_aborts_total",
		"MPI jobs aborted (worker loss, rank failure, or watchdog timeout)")
)

// RegisterMetrics exports this package's instrumentation plus the embedded
// PMI server's histograms.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(startsTotal, abortsTotal)
	pmi.RegisterMetrics(reg)
	mpi.RegisterMetrics(reg)
}

// JobSpec describes one MPI job: the unit of the paper's input files
// ("MPI: 4 namd2.sh input-1.pdb output-1.log").
type JobSpec struct {
	JobID     string
	NProcs    int
	Cmd       string
	Args      []string
	Env       []string // extra KEY=VALUE pairs for the user process
	Dir       string
	WallLimit time.Duration
}

// Validate reports whether the spec is runnable.
func (s *JobSpec) Validate() error {
	if s.NProcs <= 0 {
		return fmt.Errorf("hydra: job %q has nonpositive process count %d", s.JobID, s.NProcs)
	}
	if s.Cmd == "" {
		return fmt.Errorf("hydra: job %q has empty command", s.JobID)
	}
	return nil
}

var mpiexecSeq atomic.Uint64

// MPIExec is one background mpiexec instance managing a single MPI job.
// JETS runs many of these concurrently; the paper notes that hundreds of
// mpiexec processes place no noticeable load on the submit site.
type MPIExec struct {
	Spec JobSpec

	kvsName string
	addr    string
	srv     *pmi.Server

	mu      sync.Mutex
	aborted bool
}

// control is the process's PMI endpoint: one listener on a loopback ephemeral
// port, started by the first MPI job and shared by every job after it, so a
// job costs a registry entry, not a listen and a close, and a rank process
// can keep its connection from one job to the next.
var control struct {
	sync.Mutex
	svc *pmi.Service
}

func controlService() (*pmi.Service, error) {
	control.Lock()
	defer control.Unlock()
	if control.svc == nil {
		svc, err := pmi.NewService("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		control.svc = svc
	}
	return control.svc, nil
}

// StartMPIExec launches the mpiexec network services for the job: a PMI
// server under a fresh KVS name at the process's control endpoint. It
// corresponds to JETS forking `mpiexec -launcher manual` in the background.
func StartMPIExec(spec JobSpec) (*MPIExec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	kvs := fmt.Sprintf("kvs_%s_%d", sanitizeToken(spec.JobID), mpiexecSeq.Add(1))
	srv, err := pmi.NewServer(kvs, spec.NProcs)
	if err != nil {
		return nil, err
	}
	svc, err := controlService()
	if err != nil {
		return nil, err
	}
	if err := svc.Attach(srv); err != nil {
		return nil, err
	}
	startsTotal.Inc()
	return &MPIExec{Spec: spec, kvsName: kvs, addr: svc.Addr(), srv: srv}, nil
}

func sanitizeToken(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "job"
	}
	return string(out)
}

// ControlAddr returns the endpoint proxies dial back to (the merged
// control/PMI channel).
func (m *MPIExec) ControlAddr() string { return m.addr }

// KVSName returns the job's PMI key-value-space name.
func (m *MPIExec) KVSName() string { return m.kvsName }

// ProxyTasks renders the launcher=manual output: one proxy task per rank,
// ready for the dispatcher to hand to workers.
func (m *MPIExec) ProxyTasks() []proto.Task {
	tasks := make([]proto.Task, m.Spec.NProcs)
	for rank := range tasks {
		tasks[rank] = m.ProxyTask(rank)
	}
	return tasks
}

// ProxyTask renders the proxy task of one rank.
func (m *MPIExec) ProxyTask(rank int) proto.Task {
	return proto.Task{
		TaskID:    fmt.Sprintf("%s/rank%d", m.Spec.JobID, rank),
		JobID:     m.Spec.JobID,
		Cmd:       m.Spec.Cmd,
		Args:      append([]string(nil), m.Spec.Args...),
		Env:       append([]string(nil), m.Spec.Env...),
		Dir:       m.Spec.Dir,
		Rank:      rank,
		Size:      m.Spec.NProcs,
		Control:   m.addr,
		KVS:       m.kvsName,
		WallLimit: m.Spec.WallLimit,
	}
}

// OnWired registers fn to run once every rank has dialed back to the PMI
// endpoint — the launcher=manual analogue of mpiexec seeing all proxies
// connect. If already wired, fn runs immediately.
func (m *MPIExec) OnWired(fn func()) { m.srv.OnWired(fn) }

// Abort ends the job at the control endpoint; user processes blocked in PMI
// operations fail promptly (TCP fault recoverability, §6.1.3). It is called
// when a worker running one of the job's proxies dies.
func (m *MPIExec) Abort() {
	m.mu.Lock()
	if m.aborted {
		m.mu.Unlock()
		return
	}
	m.aborted = true
	m.mu.Unlock()
	abortsTotal.Inc()
	m.srv.Close()
}

// Aborted reports whether the job was aborted.
func (m *MPIExec) Aborted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aborted
}

// Close takes the job off the control endpoint after it completes. Ranks
// keep their connections to the endpoint.
func (m *MPIExec) Close() error { return m.srv.Close() }
