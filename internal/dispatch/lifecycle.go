package dispatch

// Job lifecycle. Every job the dispatcher holds has exactly one liveJob in
// Dispatcher.jobs, from admit (the one way in) to resolveLocked (the one way
// out); the states between are listed below. DESIGN.md "Job lifecycle" has
// the transition table.

import (
	"errors"
	"fmt"
	"time"

	"jets/internal/journal"
	"jets/internal/metrics"
)

// jobState says which structure holds a live job right now.
type jobState uint8

const (
	// queuedHot: the *Job is in a shard's hot queue — or in the short window
	// between its reservation and its placement there.
	queuedHot jobState = iota
	// queuedCold: the spec is in the spill store and the record itself sits in
	// a shard's cold tail (or a refill batch).
	queuedCold
	// running: popped and seated; run tracks its ranks.
	running
	// retryBackoff: faulted and parked on a timer until the next attempt.
	retryBackoff
	numStates
)

// liveJob is the record of one job in flight. Everything but the embedded
// Handle is guarded by Dispatcher.mu. The handle is embedded so a live job is
// one allocation; callers keep &liveJob.Handle after the record has left the
// table, so resolveLocked drops the job pointers.
type liveJob struct {
	Handle
	state jobState
	// What a queuedCold job keeps in memory while no *Job exists: the retry
	// budget consumed, the submit sequence that arbitrates global order, and
	// the submit time (unix nanos) for queue-wait stats. coolLocked writes
	// them holding the shard lock as well as d.mu, so a shard's cold tail
	// reads them under its own lock.
	retries   int32
	seq       int64
	submitted int64
	job       *Job        // nil while queuedCold
	run       *runningJob // set only while running
	// loc is the job's record in the spill store, from its spill (or, after
	// recovery, its record there) until resolveLocked releases it; zero for
	// a job that never spilled. Written under d.mu and, by coolLocked, the
	// shard lock too.
	loc journal.Loc
}

// attempts is the retry budget the job has consumed.
func (lj *liveJob) attempts() int {
	if lj.job != nil {
		return lj.job.retries
	}
	return int(lj.retries)
}

// setStateLocked moves a live job between states. Caller holds d.mu.
func (d *Dispatcher) setStateLocked(lj *liveJob, st jobState) {
	d.byState[lj.state]--
	lj.state = st
	d.byState[st]++
}

// placement is where admit puts a job once it is in the table.
type placement uint8

const (
	placeBack    placement = iota // submission order: the hot window, or the spilled tail beyond it
	placeBackoff                  // recovered mid-run: its workers are gone, so it takes the fault-retry path
	placeColdRef                  // recovered SpillRef: the spill store already holds the spec
)

// ErrShutDown rejects a submission to a dispatcher that is draining or
// closed.
var ErrShutDown = errors.New("dispatch: dispatcher is shut down")

// admit is the only way into the job table. All jobs are validated and their
// IDs reserved before any is placed, so the batch enters as a whole or not at
// all. A recovered job's consumed retry budget is journaled as a Retried
// record so it survives a crash.
func (d *Dispatcher) admit(jobs []*Job, where placement) error {
	if where != placeColdRef {
		for _, j := range jobs {
			if err := j.Spec.Validate(); err != nil {
				return err
			}
			if j.Type == Sequential && j.Spec.NProcs != 1 {
				return fmt.Errorf("dispatch: sequential job %q must have NProcs 1", j.Spec.JobID)
			}
		}
	}
	// The shared lock spans the draining check and the placement, so Shutdown
	// (which takes it exclusively to set draining) never starts its drain
	// wait with an admission still in flight.
	d.subMu.RLock()
	if d.closed.Load() || d.draining.Load() {
		d.subMu.RUnlock()
		return ErrShutDown
	}
	st := queuedHot
	if where == placeBackoff {
		st = retryBackoff
	}
	// A duplicate — of any live job, in any state, or within the batch —
	// rolls back the reservations already made. The submit time and sequence
	// are set here, under d.mu, because the entry is visible from here on: an
	// online checkpoint reads them under d.mu alone.
	now := time.Now()
	d.mu.Lock()
	for i, j := range jobs {
		id := j.Spec.JobID
		if _, dup := d.jobs[id]; dup {
			for _, k := range jobs[:i] {
				delete(d.jobs, k.Spec.JobID)
			}
			d.mu.Unlock()
			d.subMu.RUnlock()
			return fmt.Errorf("dispatch: duplicate job id %q", id)
		}
		j.submitted, j.seq = now, d.subSeq.Add(1)
		j.live = &liveJob{Handle: Handle{jobID: id}, state: st, job: j}
		d.jobs[id] = j.live
	}
	d.byState[st] += len(jobs)
	if d.reclaim != nil {
		// Recovery: a job takes over its record in the reopened spill store.
		for _, j := range jobs {
			if loc, ok := d.reclaim[j.Spec.JobID]; ok {
				j.live.loc = loc
				delete(d.reclaim, j.Spec.JobID)
			}
		}
	}
	d.mu.Unlock()

	for _, j := range jobs {
		id := j.Spec.JobID
		d.stats.jobsSubmitted.Add(1)
		d.emit(Event{Kind: EvJobSubmitted, JobID: id, Detail: j.Type.String()})
		if where == placeColdRef {
			d.journal(journal.Record{Kind: journal.SpillRef, JobID: id, Attempt: j.retries})
		} else {
			d.journal(submittedRecord(j))
			if j.retries > 0 {
				d.journal(journal.Record{Kind: journal.Retried, JobID: id, Attempt: j.retries})
			}
		}
		switch where {
		case placeBackoff:
			d.requeue(j)
		case placeColdRef:
			d.placeCold(j)
		default:
			d.placeJob(j, false)
		}
	}
	if d.closed.Load() {
		// Close does not take subMu, so its sweep may have run between the
		// check and the placement; sweep again so the handles resolve.
		d.failQueued()
	}
	d.subMu.RUnlock()
	d.schedule()
	return nil
}

// exit says how a job leaves the table. The zero value is terminal: the job
// ran to an outcome, or never can.
type exit struct {
	res JobResult // completes the handle; resolveLocked fills in JobID and Retries
	// stranded: Close caught the job queued or backing off. The handle fails,
	// but no Completed record is cut and the spill entry stays, so a journal
	// recovers the job on the next start.
	stranded bool
}

// stranded is the exit of a job Close caught before it could run.
var stranded = exit{res: JobResult{Failed: true, Err: ErrDispatcherClosed.Error()}, stranded: true}

// resolveLocked is the only way out of the job table. It claims the entry —
// a job another path already resolved is left alone, which is what makes
// completion exactly-once — frees the ID, and wakes Drain. Caller holds d.mu.
func (d *Dispatcher) resolveLocked(lj *liveJob, x exit) {
	if lj == nil || d.jobs[lj.jobID] != lj {
		return
	}
	id := lj.jobID
	delete(d.jobs, id)
	d.byState[lj.state]--
	d.kickLocked()
	res := x.res
	res.JobID, res.Retries = id, lj.attempts()
	if res.Failed {
		d.stats.jobsFailed.Add(1)
		d.emit(Event{Kind: EvJobFailed, JobID: id, Detail: res.Err})
	} else {
		d.recordLocked(metrics.JobRecord{ID: id, Procs: lj.job.Procs(), Start: res.Start, Stop: res.Stop})
		d.stats.jobsCompleted.Add(1)
		d.emit(Event{Kind: EvJobCompleted, JobID: id})
	}
	lj.job, lj.run = nil, nil
	if !x.stranded {
		// The Completed record dedupes the job at recovery.
		d.journal(journal.Record{Kind: journal.Completed, JobID: id, Failed: res.Failed})
	}
	if sp := d.spillLoaded(); sp != nil && !x.stranded && lj.loc != (journal.Loc{}) {
		// Terminal: a once-spilled job's spec leaves the spill store's
		// custody.
		sp.Release(lj.loc)
		lj.loc = journal.Loc{}
	}
	lj.complete(res)
}

// specLostLocked resolves a cold job whose spilled spec could not be read
// back. Caller holds d.mu.
func (d *Dispatcher) specLostLocked(lj *liveJob) {
	if d.closed.Load() {
		// The store is closing under us, not corrupt.
		d.resolveLocked(lj, stranded)
		return
	}
	d.resolveLocked(lj, exit{res: JobResult{Failed: true, Err: "dispatch: spilled job spec unreadable"}})
}

// strand resolves one job Close caught outside the shard queues.
func (d *Dispatcher) strand(j *Job) {
	d.mu.Lock()
	d.resolveLocked(j.live, stranded)
	d.mu.Unlock()
}

// stateCount reports how many live jobs are in the state.
func (d *Dispatcher) stateCount(st jobState) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byState[st]
}
