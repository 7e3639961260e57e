package dispatch

import (
	"fmt"

	"jets/internal/obs"
)

// instruments are the dispatcher's live observability hooks. The histograms
// always exist (detached when no registry is configured) so the scheduling
// code never branches on whether export is enabled; everything else is
// sampled from state the dispatcher already maintains — the stats atomics
// and the per-shard advisory mirrors — so enabling export adds nothing to
// the hot dispatch path.
type instruments struct {
	// queueWait is submit-to-pop: how long a job sat queued before the
	// scheduling pass seated it on workers.
	queueWait *obs.Hist
	// assembly is pop-to-dispatched: group binding plus (for MPI jobs)
	// mpiexec/PMI-server startup, ending when every task is handed to its
	// worker's outbox.
	assembly *obs.Hist
	// jobDur is the seated lifetime: pop to final rank report.
	jobDur *obs.Hist
}

func newInstruments(instance string) *instruments {
	label := instanceLabel(instance)
	return &instruments{
		queueWait: obs.NewHistL("jets_dispatch_queue_wait_seconds", label,
			"time jobs spent queued before being seated on workers", nil),
		assembly: obs.NewHistL("jets_dispatch_assembly_seconds", label,
			"time from queue pop to all tasks dispatched (group binding plus mpiexec startup)", nil),
		jobDur: obs.NewHistL("jets_job_duration_seconds", label,
			"seated job lifetime from pop to final rank report", nil),
	}
}

// instanceLabel renders Config.Instance as an obs label clause. The empty
// instance keeps every series at its exact historical unlabeled name, which
// the CI metrics smoke and existing dashboards grep for.
func instanceLabel(instance string) string {
	if instance == "" {
		return ""
	}
	return fmt.Sprintf("instance=%q", instance)
}

// QueueWaitHist exposes the submit-to-seat latency histogram, maintained
// whether or not a registry is attached — the self-monitoring alert rules
// (internal/alerts) watch its windowed quantiles.
func (d *Dispatcher) QueueWaitHist() *obs.Hist { return d.ins.queueWait }

// registerObs exports the dispatcher through the registry: the histograms
// above, counter views over the stats atomics, and gauge views over the
// advisory scheduling state (global and per shard).
func (d *Dispatcher) registerObs(reg *obs.Registry) {
	reg.Register(d.ins.queueWait, d.ins.assembly, d.ins.jobDur, obs.AcceptErrors)

	// Instance-qualified series names keep two dispatchers in one process
	// (federation) from colliding in the shared registry: the second
	// registration of a duplicate series is rejected by Register, which
	// silently froze the second instance's metrics before Instance existed.
	il := instanceLabel(d.cfg.Instance)

	reg.CounterFuncL("jets_jobs_submitted_total", il, "jobs accepted by Submit", d.stats.jobsSubmitted.Load)
	reg.CounterFuncL("jets_jobs_completed_total", il, "jobs that finished successfully", d.stats.jobsCompleted.Load)
	reg.CounterFuncL("jets_jobs_failed_total", il, "jobs that finished failed (after retries)", d.stats.jobsFailed.Load)
	reg.CounterFuncL("jets_jobs_retried_total", il, "jobs requeued after a worker fault", d.stats.jobsRetried.Load)
	reg.CounterFuncL("jets_tasks_dispatched_total", il, "tasks handed to workers", d.stats.tasksDispatched.Load)
	reg.CounterFuncL("jets_workers_joined_total", il, "worker registrations accepted", d.stats.workersJoined.Load)
	reg.CounterFuncL("jets_workers_lost_total", il, "workers declared dead", d.stats.workersLost.Load)
	reg.CounterFuncL("jets_steals_total", il, "jobs launched through the cross-shard multi-lock path", d.stats.steals.Load)
	reg.CounterFuncL("jets_recovery_jobs_replayed", il, "jobs rebuilt from the journal at startup", d.stats.jobsReplayed.Load)
	reg.CounterFuncL("jets_journal_errors_total", il, "journal records dropped because the WAL's degraded-mode retry buffer overflowed (durability lost for those records)", d.stats.journalErrors.Load)
	reg.CounterFuncL("jets_trace_events_dropped_total", il, "lifecycle trace events lost to observer backpressure", d.droppedEvents.Load)
	reg.CounterFuncL("jets_spill_jobs_total", il, "queued jobs spilled to the cold on-disk tail", d.stats.jobsSpilled.Load)
	reg.CounterFuncL("jets_spill_bytes_total", il, "bytes of job specs written to the spill store", d.stats.spillBytes.Load)
	reg.CounterFuncL("jets_spill_reads_total", il, "job specs rehydrated from the spill store", d.stats.spillReads.Load)

	reg.GaugeFuncL("jets_workers", il, "live registered workers", func() float64 { return float64(d.Workers()) })
	reg.GaugeFuncL("jets_idle_workers", il, "workers parked waiting for tasks", func() float64 { return float64(d.idleCount()) })
	reg.GaugeFuncL("jets_queued_jobs", il, "jobs waiting for workers", func() float64 { return float64(d.queuedCount()) })
	reg.GaugeFuncL("jets_running_jobs", il, "jobs currently executing", func() float64 { return float64(d.RunningJobs()) })
	reg.GaugeFuncL("jets_hot_queued_jobs", il, "queued jobs fully hydrated in the in-memory hot window", func() float64 {
		return float64(d.queuedCount() - int(d.SpilledJobs()))
	})
	reg.GaugeFuncL("jets_cold_queued_jobs", il, "queued jobs resident only in the spill store", func() float64 {
		return float64(d.SpilledJobs())
	})
	reg.GaugeFuncL("jets_journal_segments", il, "WAL segment files on disk (checkpointing keeps this bounded)", func() float64 {
		return float64(d.JournalSegments())
	})
	reg.GaugeFuncL("jets_journal_degraded", il, "1 while the WAL is buffering appends after an I/O failure, 0 when healthy", func() float64 {
		if d.JournalDegraded() {
			return 1
		}
		return 0
	})

	for _, s := range d.shards {
		s := s
		label := fmt.Sprintf("shard=%q", fmt.Sprint(s.idx))
		if il != "" {
			label = il + "," + label
		}
		reg.GaugeFuncL("jets_shard_idle_workers", label,
			"idle workers per scheduling shard", func() float64 { return float64(s.nIdle.Load()) })
		reg.GaugeFuncL("jets_shard_queued_jobs", label,
			"queued jobs per scheduling shard", func() float64 { return float64(s.qlen.Load()) })
	}
}
