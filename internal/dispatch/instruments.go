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

func newInstruments() *instruments {
	return &instruments{
		queueWait: obs.NewHist("jets_dispatch_queue_wait_seconds",
			"time jobs spent queued before being seated on workers", nil),
		assembly: obs.NewHist("jets_dispatch_assembly_seconds",
			"time from queue pop to all tasks dispatched (group binding plus mpiexec startup)", nil),
		jobDur: obs.NewHist("jets_job_duration_seconds",
			"seated job lifetime from pop to final rank report", nil),
	}
}

// registerObs exports the dispatcher through the registry: the histograms
// above, counter views over the stats atomics, and gauge views over the
// advisory scheduling state (global and per shard).
func (d *Dispatcher) registerObs(reg *obs.Registry) {
	reg.Register(d.ins.queueWait, d.ins.assembly, d.ins.jobDur, obs.AcceptErrors)

	reg.CounterFunc("jets_jobs_submitted_total", "jobs accepted by Submit", d.stats.jobsSubmitted.Load)
	reg.CounterFunc("jets_jobs_completed_total", "jobs that finished successfully", d.stats.jobsCompleted.Load)
	reg.CounterFunc("jets_jobs_failed_total", "jobs that finished failed (after retries)", d.stats.jobsFailed.Load)
	reg.CounterFunc("jets_jobs_retried_total", "jobs requeued after a worker fault", d.stats.jobsRetried.Load)
	reg.CounterFunc("jets_tasks_dispatched_total", "tasks handed to workers", d.stats.tasksDispatched.Load)
	reg.CounterFunc("jets_workers_joined_total", "worker registrations accepted", d.stats.workersJoined.Load)
	reg.CounterFunc("jets_workers_lost_total", "workers declared dead", d.stats.workersLost.Load)
	reg.CounterFunc("jets_steals_total", "jobs launched through the cross-shard multi-lock path", d.stats.steals.Load)
	reg.CounterFunc("jets_recovery_jobs_replayed", "jobs rebuilt from the journal at startup", d.stats.jobsReplayed.Load)
	reg.CounterFunc("jets_journal_errors_total", "journal records dropped because the WAL's degraded-mode retry buffer overflowed (durability lost for those records)", d.stats.journalErrors.Load)
	reg.CounterFunc("jets_trace_events_dropped_total", "lifecycle trace events lost to observer backpressure", d.droppedEvents.Load)
	reg.CounterFunc("jets_spill_jobs_total", "queued jobs spilled to the cold on-disk tail", d.stats.jobsSpilled.Load)
	reg.CounterFunc("jets_spill_bytes_total", "bytes of job specs written to the spill store", d.stats.spillBytes.Load)
	reg.CounterFunc("jets_spill_reads_total", "job specs rehydrated from the spill store", d.stats.spillReads.Load)

	reg.GaugeFunc("jets_workers", "live registered workers", func() float64 { return float64(d.Workers()) })
	reg.GaugeFunc("jets_idle_workers", "workers parked waiting for tasks", func() float64 { return float64(d.idleCount()) })
	reg.GaugeFunc("jets_queued_jobs", "jobs waiting for workers", func() float64 { return float64(d.queuedCount()) })
	reg.GaugeFunc("jets_running_jobs", "jobs currently executing", func() float64 { return float64(d.RunningJobs()) })
	reg.GaugeFunc("jets_hot_queued_jobs", "queued jobs fully hydrated in the in-memory hot window", func() float64 {
		return float64(d.queuedCount() - int(d.SpilledJobs()))
	})
	reg.GaugeFunc("jets_cold_queued_jobs", "queued jobs resident only in the spill store", func() float64 {
		return float64(d.SpilledJobs())
	})
	reg.GaugeFunc("jets_journal_segments", "WAL segment files on disk (checkpointing keeps this bounded)", func() float64 {
		return float64(d.JournalSegments())
	})
	reg.GaugeFunc("jets_journal_degraded", "1 while the WAL is buffering appends after an I/O failure, 0 when healthy", func() float64 {
		if d.JournalDegraded() {
			return 1
		}
		return 0
	})

	for _, s := range d.shards {
		s := s
		label := fmt.Sprintf("shard=%q", fmt.Sprint(s.idx))
		reg.GaugeFuncL("jets_shard_idle_workers", label,
			"idle workers per scheduling shard", func() float64 { return float64(s.nIdle.Load()) })
		reg.GaugeFuncL("jets_shard_queued_jobs", label,
			"queued jobs per scheduling shard", func() float64 { return float64(s.qlen.Load()) })
	}
}
