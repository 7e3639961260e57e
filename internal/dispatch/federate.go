package dispatch

// Federation surface: what one dispatcher instance exposes to the in-process
// work router (internal/router). The router partitions submissions across N
// instances in the same process and rebalances queued work between them by
// calling these methods directly; no federation traffic crosses the wire, and
// the worker port serves workers only.
//
//   - StealQueued / SubmitStolen move *queued* (never running) jobs between
//     instances, generalizing the intra-dispatcher shard steal (steal.go)
//     one level up. The victim journals a Migrated record — terminal locally
//     — and the thief journals a fresh Submitted record, so each instance's
//     WAL stays self-contained across migrations.
//
//   - HandleOf, Draining and Instance are the reconciliation and placement
//     inputs the router reads; LiveJobs and Load sample an instance whole.

import (
	"errors"
	"math"

	"jets/internal/hydra"
	"jets/internal/journal"
)

// ErrDraining rejects work arriving at an instance that has begun shutting
// down. SubmitStolen returns it so a routing tier can distinguish "re-place
// this job elsewhere" from a fatal submission error: the job never entered
// this instance's state.
var ErrDraining = errors.New("dispatch: dispatcher is draining")

// StolenJob is a queued job extracted from one instance for placement on
// another: the durable submission payload plus the retry budget already
// consumed, which the thief preserves so migration never resets a job's
// attempt accounting.
type StolenJob struct {
	Spec    hydra.JobSpec
	Type    JobType
	Retries int
}

// StealQueued extracts up to max queued jobs — oldest first, by submit
// sequence — for migration to the instance named dest. Running jobs are
// never taken: their workers, PMI wiring, and results live here. Each taken
// job is journaled as Migrated (terminal locally, so a crash between steal
// and re-placement recovers it on the destination, not twice), its local
// handle is abandoned, and its ID becomes free locally.
//
// Only a routing tier that owns completion delivery may call this: whoever
// holds the returned jobs is responsible for re-submitting them (thief-side
// SubmitStolen) and routing their completions back to the original
// submitter's handle. Directly submitted jobs must not be stolen out from
// under a caller waiting on the instance handle.
func (d *Dispatcher) StealQueued(max int, dest string) []StolenJob {
	if max <= 0 {
		return nil
	}
	// Cold-tail entries are taken without their specs — stealing never forces
	// a disk read into the locked region — and hydrated in a single batched
	// spill read after the locks drop. Entries a refill pass has already
	// claimed (s.refill) stay put.
	var entries []*liveJob
	var coldLocs []journal.Loc
	var coldAt []int // coldLocs[k] is the record of entries[coldAt[k]]
	d.lockAll()
	for len(entries) < max {
		// Exact global minimum under the full multi-lock, mirroring
		// launchStolen: steal the oldest queued work so the destination's
		// front-of-queue placement approximates the federation-wide FIFO.
		best, bestSeq, bestCold := -1, noJob, false
		for i, s := range d.shards {
			if j := s.queue.Peek(); j != nil && j.seq < bestSeq {
				best, bestSeq, bestCold = i, j.seq, false
			}
			if len(s.cold) > 0 && s.cold[0].seq < bestSeq {
				best, bestSeq, bestCold = i, s.cold[0].seq, true
			}
		}
		if best < 0 {
			break
		}
		s := d.shards[best]
		if bestCold {
			coldLocs = append(coldLocs, s.cold[0].loc)
			coldAt = append(coldAt, len(entries))
			entries = append(entries, s.cold[0])
			s.cold = s.cold[:copy(s.cold, s.cold[1:])]
			s.refreshHead()
			continue
		}
		j := s.queue.Next(math.MaxInt)
		s.refreshHead()
		if j == nil {
			break
		}
		entries = append(entries, j.live)
	}
	for _, s := range d.shards {
		// A shard whose hot window the steal emptied looks empty to the
		// scheduling pass until its cold tail rehydrates, and only a pop
		// would otherwise start that.
		d.maybeRefillLocked(s)
	}
	d.unlockAll()
	if len(entries) == 0 {
		return nil
	}
	// read[i] is entries[i]'s cold job rebuilt from its record.
	read := make([]*Job, len(entries))
	if sp := d.spillLoaded(); len(coldLocs) > 0 && sp != nil {
		err := sp.ReadBatch(coldLocs, func(k int, r journal.Record) { read[coldAt[k]] = jobFromRecord(r) })
		d.stats.spillReads.Add(1)
		if err != nil {
			d.spillFailure(err)
		}
	}
	out := make([]StolenJob, 0, len(entries))
	d.mu.Lock()
	for i, lj := range entries {
		j := lj.job
		if j == nil {
			if j = read[i]; j == nil {
				// Spec unreadable: fail it here so neither instance
				// resurrects a job nobody can reconstruct.
				d.specLostLocked(lj)
				continue
			}
			j.retries = int(lj.retries)
		}
		d.resolveLocked(lj, exit{migrated: dest})
		out = append(out, StolenJob{Spec: j.Spec, Type: j.Type, Retries: j.retries})
	}
	d.mu.Unlock()
	return out
}

// SubmitStolen places a job stolen from a peer instance. It differs from
// Submit in three ways: the job keeps its consumed retry budget, it is placed
// at the front of a shard queue — it was the victim's oldest work — and a
// dispatcher that has begun draining refuses it with ErrDraining, so the
// caller re-places the job on another instance. A steal placement that landed
// after Shutdown's draining flip would resurrect a job behind the drain wait,
// running it against workers already being told to exit; admit's subMu gate
// makes the refusal race-free.
func (d *Dispatcher) SubmitStolen(sj StolenJob) (*Handle, error) {
	j := &Job{Spec: sj.Spec, Type: sj.Type, retries: sj.Retries}
	if err := d.admit([]*Job{j}, placeFront); err != nil {
		if errors.Is(err, ErrShutDown) {
			err = ErrDraining
		}
		return nil, err
	}
	return &j.live.Handle, nil
}

// LiveJobs returns the IDs of every job this instance considers in flight:
// queued, running, or parked in a retry backoff.
func (d *Dispatcher) LiveJobs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.jobs))
	for id := range d.jobs {
		ids = append(ids, id)
	}
	return ids
}

// HandleOf returns the live job's handle. A router starting over a journal
// subscribes to the jobs the instance recovered through this; a false return
// means the job is not live here (never arrived, or already terminal).
func (d *Dispatcher) HandleOf(id string) (*Handle, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lj, ok := d.jobs[id]
	if !ok {
		return nil, false
	}
	return &lj.Handle, true
}

// Load samples an instance's backlog and pool. Advisory (lock-free
// mirrors), like the scheduling pass itself.
func (d *Dispatcher) Load() (queued, running, idle, workers int) {
	return d.queuedCount(), d.RunningJobs(), d.idleCount(), d.Workers()
}

// Draining reports whether Shutdown has begun: a draining instance refuses
// stolen work and should stop being offered new placements.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// Instance returns the configured instance name (Config.Instance); the
// router uses it as the member's stable routing name.
func (d *Dispatcher) Instance() string { return d.cfg.Instance }
