package dispatch

// The scheduling pass over the sharded state. Two paths:
//
//   - launchLocal: the shard holding the lowest-sequence queued job can
//     satisfy it from its own idle set. One shard lock; no cross-shard
//     coordination. This is the hot path when jobs land in the shard whose
//     workers are free (Submit places them there deliberately).
//
//   - launchStolen: the lowest-sequence job sits in a shard without enough
//     idle workers, so the pass takes the short-lived ordered multi-lock
//     (ascending shard index, see shard.go), re-derives the exact global
//     minimum, and assembles the worker group across shards. This is both
//     the work-stealing path (a shard with idle workers and an empty queue
//     pulls the oldest job from a victim shard before going idle) and the
//     cross-shard MPI group-assembly path.
//
// Per-submit sequence numbers arbitrate which job is taken: the pass always
// launches the queued job with the lowest sequence, so the paper's
// FIFO/first-come-first-served order stays observable regardless of which
// shard a job was queued in. Head-of-line blocking is likewise preserved:
// if the oldest job does not fit the whole idle pool, nothing runs.

// schedule launches queued jobs until none fits the idle pool.
func (d *Dispatcher) schedule() {
	for d.scheduleOnce() {
	}
}

// scheduleOnce launches at most one job, reporting whether it did.
func (d *Dispatcher) scheduleOnce() bool {
	if d.closed.Load() || d.stopping.Load() {
		return false
	}
	// Advisory scan: find the shard whose queue head has the lowest submit
	// sequence. Lock-free; validated under locks below.
	best, bestSeq := -1, noJob
	for i, s := range d.shards {
		if h := s.headSeq.Load(); h < bestSeq {
			best, bestSeq = i, h
		}
	}
	if best < 0 {
		return false
	}
	c := d.shards[best]
	if need := c.headProcs.Load(); need > 0 && c.nIdle.Load() >= need {
		if d.launchLocal(c) {
			return true
		}
		// Raced with a concurrent pass; fall through to the exact pass.
	}
	if d.idleCount() == 0 {
		// Advisory reject: no idle workers anywhere. A worker parking
		// concurrently re-runs the pass itself (park schedules), so a
		// stale zero here costs nothing.
		return false
	}
	return d.launchStolen()
}

// launchLocal pops the shard's head job and seats it on the shard's own idle
// workers. Returns false when a concurrent pass won the race.
func (d *Dispatcher) launchLocal(c *shard) bool {
	c.mu.Lock()
	job := c.queue.Next(c.idle.Len())
	if job == nil {
		c.refreshHead()
		c.mu.Unlock()
		return false
	}
	rj := d.registerRunning(job)
	d.takeGroup(c, nil, rj)
	c.refreshHead()
	d.maybeRefillLocked(c)
	// Emitted before the unlock: the pop held the same shard lock the queued
	// event was emitted under, so the pair cannot reorder.
	d.emit(Event{Kind: EvGroupAssembled, JobID: job.Spec.JobID, Detail: "local"})
	c.mu.Unlock()
	d.dispatchJob(rj)
	return true
}

// launchStolen performs the exact scheduling decision under the ordered
// multi-lock: find the globally oldest queued job, and if the aggregate idle
// pool seats it, assemble its worker group across shards.
func (d *Dispatcher) launchStolen() bool {
	d.lockAll()
	best, bestSeq := -1, noJob
	totalIdle := 0
	for i, s := range d.shards {
		totalIdle += s.idle.Len()
		if j := s.queue.Peek(); j != nil && j.seq < bestSeq {
			best, bestSeq = i, j.seq
		}
	}
	if best < 0 {
		d.unlockAll()
		return false
	}
	c := d.shards[best]
	job := c.queue.Next(totalIdle)
	if job == nil {
		// Head-of-line blocking: the oldest job does not fit the pool.
		d.unlockAll()
		return false
	}
	rj := d.registerRunning(job)
	d.takeGroup(c, d.shards, rj)
	c.refreshHead()
	d.maybeRefillLocked(c)
	d.stats.steals.Add(1)
	d.emit(Event{Kind: EvGroupAssembled, JobID: job.Spec.JobID, Detail: "stolen"})
	d.unlockAll()
	d.dispatchJob(rj)
	return true
}

// takeGroup is group selection, for both launch paths: it binds rj's ranks
// to idle workers chosen by the group policy. The candidates are the job's
// own shard's idle workers first, so FCFS favours co-keyed workers, then
// those of others in shard-index order; within a shard, longest-idle first.
// The candidate list, its coordinates and the policy's choice live in the
// job's shard's scratch, so selection allocates nothing. Caller holds c.mu
// and the lock of every shard in others.
func (d *Dispatcher) takeGroup(c *shard, others []*shard, rj *runningJob) {
	sc := &c.scratch
	flat := c.idle.appendTo(sc.flat)
	for _, s := range others {
		if s != c {
			flat = s.idle.appendTo(flat)
		}
	}
	coords := sc.coords
	for _, wc := range flat {
		coords = append(coords, wc.reg.Coord)
	}
	sel := d.cfg.Group(sc.sel, coords, len(rj.ranks))
	for i, idx := range sel {
		wc := flat[idx]
		wc.shard.removeIdle(wc)
		rj.ranks[i].wc = wc
	}
	// Keep the capacity, not the workers: a departed worker must not stay
	// reachable from the scratch.
	clear(flat)
	clear(coords)
	sc.flat, sc.coords, sc.sel = flat[:0], coords[:0], sel[:0]
}

// placeJob queues a submitted (or retried) job. Placement is a performance
// decision only — completion order is arbitrated by the submit sequence, not
// by queue position — so the job goes where it will most likely launch via
// the single-shard fast path: the shard with the most idle workers, falling
// back to round-robin when the pool is saturated.
func (d *Dispatcher) placeJob(j *Job, retry bool) {
	s := d.shards[0]
	if n := len(d.shards); n > 1 {
		bestIdle := int64(0)
		bestAt := -1
		for i, cand := range d.shards {
			if idle := cand.nIdle.Load(); idle > bestIdle {
				bestIdle, bestAt = idle, i
			}
		}
		if bestAt < 0 {
			bestAt = int(d.subRR.Add(1)-1) % n
		}
		s = d.shards[bestAt]
	}
	s.mu.Lock()
	if retry {
		// Retries bypass the spill decision: they are old by definition and
		// bounded by in-flight work, so they always re-enter the hot window
		// at the front of consideration.
		s.requeueJob(j)
		// Emitted under the shard lock: a pop needs this same lock, so the
		// queued event always precedes the attempt's group-assembled event.
		d.emit(Event{Kind: EvJobQueued, JobID: j.Spec.JobID, Detail: "retry"})
	} else if d.pushJob(s, j) {
		d.emit(Event{Kind: EvJobQueued, JobID: j.Spec.JobID, Detail: "spilled"})
	} else {
		d.emit(Event{Kind: EvJobQueued, JobID: j.Spec.JobID})
	}
	s.mu.Unlock()
}
