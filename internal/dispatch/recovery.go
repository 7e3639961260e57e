package dispatch

import (
	"errors"
	"fmt"
	"log"

	"jets/internal/hydra"
	"jets/internal/journal"
)

// Crash recovery over the dispatcher journal (internal/journal). New replays
// the journal before serving: jobs with a Completed record are deduped and
// dropped; jobs that were queued are rebuilt and placed; jobs that were
// Dispatched when the previous process died are requeued through the
// existing retry/backoff path, exactly like a job whose workers were lost.
// The rebuilt live set is then re-journaled into fresh segments and the
// consumed history compacted away, so replay cost stays proportional to the
// live workload, not to everything the dispatcher ever ran.
//
// Recovered jobs get fresh handles (the submitting process is gone);
// RecoveredJobs exposes them so a restarted engine can wait for — and
// report — the workload it inherited.

// journal appends one record when a journal is configured. Append never
// touches the disk (group commit happens on the WAL's flush cadence), so
// callers may hold scheduling locks. An append failure is the WAL's sticky
// write/fsync error: from that point the dispatcher is effectively running
// in-memory again, so every dropped record bumps jets_journal_errors_total
// and the first one is logged.
func (d *Dispatcher) journal(r journal.Record) {
	if d.jnl == nil {
		return
	}
	if err := d.jnl.Append(r); err != nil {
		d.stats.journalErrors.Add(1)
		d.journalLogOnce.Do(func() {
			log.Printf("dispatch: journal append failed, job state is no longer durable: %v", err)
		})
	}
}

// submittedRecord flattens a job into its durable Submitted record.
func submittedRecord(j *Job) journal.Record {
	return journal.Record{
		Kind:      journal.Submitted,
		JobID:     j.Spec.JobID,
		JobType:   int(j.Type),
		Priority:  j.Priority,
		NProcs:    j.Spec.NProcs,
		Cmd:       j.Spec.Cmd,
		Args:      j.Spec.Args,
		Env:       j.Spec.Env,
		Dir:       j.Spec.Dir,
		WallLimit: j.Spec.WallLimit,
	}
}

// jobFromRecord rebuilds a job from its durable Submitted record (the exact
// inverse of submittedRecord); used by replay and by spill rehydration.
func jobFromRecord(r journal.Record) *Job {
	return &Job{
		Spec: hydra.JobSpec{
			JobID:     r.JobID,
			NProcs:    r.NProcs,
			Cmd:       r.Cmd,
			Args:      r.Args,
			Env:       r.Env,
			Dir:       r.Dir,
			WallLimit: r.WallLimit,
		},
		Type:     JobType(r.JobType),
		Priority: r.Priority,
	}
}

// recoverJournal rebuilds the scheduling state from the journal. Called from
// New before any concurrency exists; placement still takes the shard locks
// it would under load.
func (d *Dispatcher) recoverJournal() {
	type jobState struct {
		job        *Job // nil for spill-resident jobs (spec lives in the spill store)
		dispatched bool
		spilled    bool
		attempt    int
	}
	var order []string // first-submission order, preserved on requeue
	live := make(map[string]*jobState)
	if err := d.jnl.Replay(func(r journal.Record) error {
		switch r.Kind {
		case journal.Submitted:
			if _, seen := live[r.JobID]; !seen {
				order = append(order, r.JobID)
			}
			live[r.JobID] = &jobState{job: jobFromRecord(r)}
		case journal.SpillRef:
			// Checkpoint reference: the job is live, its spec in the spill
			// store. Re-placement below keeps it cold — a million-job backlog
			// recovers without reading (or re-journaling) a million specs.
			if _, seen := live[r.JobID]; !seen {
				order = append(order, r.JobID)
			}
			live[r.JobID] = &jobState{spilled: true, attempt: r.Attempt}
		case journal.Dispatched:
			if s := live[r.JobID]; s != nil {
				s.dispatched = true
			}
		case journal.Retried:
			if s := live[r.JobID]; s != nil {
				s.attempt = r.Attempt
				s.dispatched = false // back in a queue when the record was cut
			}
		case journal.Completed:
			delete(live, r.JobID)
		case journal.Migrated:
			// Terminal locally: the job now lives on (and is journaled by)
			// the destination instance named in the record.
			delete(live, r.JobID)
		}
		return nil
	}); err != nil {
		d.recoveryErr = errors.Join(d.recoveryErr, err)
	}

	for _, id := range order {
		s, ok := live[id]
		if !ok {
			continue // completed in a previous life
		}
		// An ID submitted, completed, and resubmitted in one run appears in
		// order once per submission (the Completed record deletes the live
		// entry, so the resubmission passes the !seen check again). Consume
		// the entry so the later occurrence hits the !ok path above instead
		// of recovering — and double-completing — the same job twice.
		delete(live, id)
		j, where := s.job, placeBack
		if s.dispatched {
			// Formerly running: the old process died with this job on workers
			// whose results can never be credited. Route it through the same
			// backoff'd requeue a worker fault would.
			where = placeBackoff
		}
		if j == nil {
			// Spill-resident: the journal holds only a SpillRef.
			sp := d.spillLoaded()
			switch {
			case sp == nil:
				d.recoveryErr = errors.Join(d.recoveryErr,
					fmt.Errorf("dispatch: journal references spilled job %q but no spill store is configured", id))
				continue
			case !s.dispatched:
				// Still cold: straight back to a cold tail by reference — a
				// million-job backlog recovers without reading a million specs.
				j, where = &Job{Spec: hydra.JobSpec{JobID: id}}, placeColdRef
			default:
				// The old process had rehydrated and dispatched it, so the
				// requeue needs its spec now. The spill entry stays until a
				// terminal record exists, like any rehydration.
				rec, found, err := sp.Get(id)
				if err != nil || !found {
					d.recoveryErr = errors.Join(d.recoveryErr,
						fmt.Errorf("dispatch: spilled spec for recovered job %q unreadable (err=%v)", id, err))
					// Cut a terminal record so the unresolvable reference does
					// not replay forever.
					d.journal(journal.Record{Kind: journal.Completed, JobID: id, Failed: true})
					continue
				}
				j = jobFromRecord(rec)
			}
		}
		j.retries = s.attempt
		// admit re-journals the job into the fresh post-open segment, so
		// Compact below can drop the consumed history without losing it.
		if err := d.admit([]*Job{j}, where); err != nil {
			d.recoveryErr = errors.Join(d.recoveryErr, fmt.Errorf("dispatch: recovering job %q: %w", id, err))
			continue
		}
		d.stats.jobsReplayed.Add(1)
		d.recovered = append(d.recovered, &j.live.Handle)
	}
	if sp := d.spillLoaded(); sp != nil {
		// Sweep spill entries whose jobs the journal shows terminal — without
		// this, completed-then-compacted history leaks specs forever.
		keep := make(map[string]struct{}, len(d.jobs))
		for id := range d.jobs {
			keep[id] = struct{}{}
		}
		sp.RetainOnly(keep)
		// Cold tails placed above refill lazily; kick the first pass so a
		// worker arriving before any pop still finds hot work.
		for _, s := range d.shards {
			s.mu.Lock()
			d.maybeRefillLocked(s)
			s.mu.Unlock()
		}
	}
	// The replayed history may only be compacted away once the re-journaled
	// live set is durable: if the fsync fails (disk full, IO error), Compact
	// would delete the only surviving copy of the workload. Skip it and
	// surface the failure — the old segments stay on disk and replay again,
	// idempotently, on the next start.
	if err := d.jnl.Sync(); err != nil {
		d.recoveryErr = errors.Join(d.recoveryErr,
			fmt.Errorf("dispatch: re-journaled live set not durable, keeping replayed segments: %w", err))
		return
	}
	if err := d.jnl.Compact(); err != nil {
		// Correctness-benign — leftover segments replay again next start and
		// dedupe per job ID — but worth surfacing.
		d.recoveryErr = errors.Join(d.recoveryErr,
			fmt.Errorf("dispatch: compacting replayed journal segments: %w", err))
	}
}

// RecoveredJobs returns the handles of jobs rebuilt from the journal at
// startup, in their original submission order. The handles behave exactly
// like freshly submitted ones; a restarted engine waits on them to finish
// the inherited workload.
func (d *Dispatcher) RecoveredJobs() []*Handle {
	return append([]*Handle(nil), d.recovered...)
}

// RecoveryError reports a failure during journal recovery in New: either a
// replay error — recovery is best-effort past the error point: everything
// replayed before it is live, anything after is lost (re-submission is safe,
// completed records that did replay still dedupe) — or a failure to fsync
// the re-journaled live set, in which case the replayed segments are kept so
// no state is lost but durability of this run's journal is not established.
func (d *Dispatcher) RecoveryError() error { return d.recoveryErr }
