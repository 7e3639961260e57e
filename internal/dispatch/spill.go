package dispatch

// Queue spill: the machinery that bounds the dispatcher's memory footprint
// under a cold backlog far larger than the worker pool can drain. Each shard
// keeps a *hot window* of at most Config.HotQueueJobs fully hydrated jobs;
// beyond it, a newly placed job's spec is persisted in a journal.SpillStore
// and the job's table entry moves to the queued-cold state: it drops the
// *Job, and the shard's cold tail points at the entry itself. A read-ahead pass (refillLoop) rehydrates specs in batches as the
// hot window drains, off the scheduler locks, so placement latency never pays
// for a disk read.
//
// Ordering: within a shard, cold jobs refill into the hot queue in submission
// order, and the hot/cold split preserves per-shard FIFO (pushes go cold
// whenever the cold tail is non-empty, so no new job overtakes a spilled
// one). Across shards, the global sequence arbitration only sees hot heads:
// once backlogs are deep enough to spill, cross-shard FIFO is approximate —
// a deliberate trade, since a spilling dispatcher is by definition running
// days ahead of its workers.
//
// Durability: spilled specs are the Submitted record encoding. When
// Config.SpillDir is set the store survives restarts and online journal
// checkpoints reference spilled jobs with tiny SpillRef records instead of
// re-copying a million specs into the WAL; with an ephemeral (temp-dir)
// store, checkpoints read the cold specs back and re-journal them in full.
// Each spilled job's table entry (liveJob.loc) holds the location of its
// record, so every read and release goes by location and the store keeps no
// index of its own. The record is released only when the job leaves the
// spill's custody for good — terminal state, or a newer record when a
// recovered job spills again — never on rehydration, because
// after a checkpoint the record is the only durable copy of a once-spilled
// job's spec.
//
// This file also owns the online WAL checkpoint (CompactJournal /
// maybeCheckpoint): re-journal the live state into a fresh segment and drop
// the older ones, bounding journal growth over an arbitrarily long uptime.

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"jets/internal/journal"
)

// refillBatch bounds how many cold jobs one rehydration pass claims — and
// therefore the largest ReadBatch and the burst of hot pushes taken under
// one shard-lock acquisition.
const refillBatch = 1024

// refillLow is the hot-window watermark below which a pop triggers
// rehydration of the cold tail.
func (d *Dispatcher) refillLow() int {
	low := d.hotMax / 2
	if low < 1 {
		low = 1
	}
	return low
}

// pushJob places a submitted job in the shard: hot while the window has room
// and the cold tail is empty, spilled otherwise. A spill failure (store
// unavailable, disk error) degrades to the unbounded in-memory queue rather
// than losing the job. Caller holds s.mu; reports whether the job spilled.
func (d *Dispatcher) pushJob(s *shard, j *Job) bool {
	if d.hotMax > 0 && (len(s.cold) > 0 || len(s.refill) > 0 || s.queue.Len() >= d.hotMax) {
		if sp := d.spillStore(); sp != nil {
			loc, err := sp.Put(submittedRecord(j))
			if err == nil {
				d.stats.jobsSpilled.Add(1)
				d.stats.spillBytes.Add(int64(loc.Len()))
				d.coolLocked(s, j, loc)
				return true
			}
			d.spillFailure(err)
		}
	}
	s.push(j)
	return false
}

// coolLocked moves a job whose spec the spill store holds at loc to the
// queued-cold state: the table entry keeps loc, drops the *Job and joins the
// shard's cold tail. Caller holds s.mu.
func (d *Dispatcher) coolLocked(s *shard, j *Job, loc journal.Loc) {
	lj := j.live
	d.mu.Lock()
	if lj.loc != loc && lj.loc != (journal.Loc{}) {
		// A recovered job spilled again inside New: its new record
		// supersedes the one the previous process wrote.
		d.spillLoaded().Release(lj.loc)
	}
	lj.loc = loc
	d.setStateLocked(lj, queuedCold)
	lj.retries, lj.seq, lj.submitted, lj.job = int32(j.retries), j.seq, j.submitted.UnixNano(), nil
	d.mu.Unlock()
	s.cold = append(s.cold, lj)
	s.refreshHead()
}

// placeCold queues a recovered SpillRef without touching the spill store: the
// record written by the previous process is still the spec's durable home
// (admit gave the job its Loc), so j carries only the ID and the retry
// budget.
func (d *Dispatcher) placeCold(j *Job) {
	s := d.shards[int(d.subRR.Add(1)-1)%len(d.shards)]
	s.mu.Lock()
	d.coolLocked(s, j, j.live.loc)
	s.mu.Unlock()
	d.emit(Event{Kind: EvJobQueued, JobID: j.Spec.JobID, Detail: "spilled"})
}

// spillLoaded returns the spill store if one is open, without creating it.
func (d *Dispatcher) spillLoaded() *journal.SpillStore { return d.spill.Load() }

// spillStore returns the spill store, opening the ephemeral temp-directory
// one on first use when no SpillDir was configured. nil means spilling is
// unavailable (open failed, or the dispatcher is closing).
func (d *Dispatcher) spillStore() *journal.SpillStore {
	if sp := d.spill.Load(); sp != nil {
		return sp
	}
	d.spillMu.Lock()
	defer d.spillMu.Unlock()
	if sp := d.spill.Load(); sp != nil {
		return sp
	}
	if d.closed.Load() || d.spillFailed {
		return nil
	}
	dir, err := os.MkdirTemp("", "jets-spill-*")
	if err != nil {
		d.spillFailed = true
		d.spillFailure(err)
		return nil
	}
	sp, err := journal.OpenSpill(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		d.spillFailed = true
		d.spillFailure(err)
		return nil
	}
	sp.Claim() // a fresh directory: nothing to take over, and no by-ID view
	d.spillTmpDir = dir
	d.spill.Store(sp)
	return sp
}

// spillFailure records and logs the first spill-path error; the dispatcher
// keeps running with in-memory queueing, and Health reports spill-degraded.
func (d *Dispatcher) spillFailure(err error) {
	if d.spillErr.CompareAndSwap(nil, &err) {
		log.Printf("dispatch: queue spill degraded, falling back to in-memory queueing: %v", err)
	}
}

// maybeRefillLocked starts a rehydration pass when the hot window has drained
// below the watermark and cold jobs are waiting. Caller holds s.mu; the pass
// itself runs on its own goroutine so no disk read happens under the lock.
func (d *Dispatcher) maybeRefillLocked(s *shard) {
	if s.refillActive || len(s.cold) == 0 || s.queue.Len() >= d.refillLow() {
		return
	}
	s.refillActive = true
	go d.refillLoop(s)
}

// refillLoop claims cold batches and pushes their rehydrated jobs into the
// hot window until the window is back above the watermark (or the tail is
// empty). Exactly one loop runs per shard (refillActive); the claimed batch
// sits in s.refill while its specs are read, so it still counts as queued.
func (d *Dispatcher) refillLoop(s *shard) {
	for {
		s.mu.Lock()
		if len(s.cold) == 0 || s.queue.Len() >= d.refillLow() {
			s.refillActive = false
			s.mu.Unlock()
			return
		}
		n := len(s.cold)
		if n > refillBatch {
			n = refillBatch
		}
		batch := make([]*liveJob, n)
		copy(batch, s.cold[:n])
		s.cold = s.cold[:copy(s.cold, s.cold[n:])]
		s.refill = batch
		s.mu.Unlock()

		jobs := d.hydrateBatch(batch)

		s.mu.Lock()
		for _, j := range jobs {
			s.queue.Push(j)
		}
		s.refill = nil
		s.refreshHead()
		s.mu.Unlock()

		if d.closed.Load() {
			// Close may have swept the queues while the batch was being read;
			// sweep again so the just-pushed jobs resolve, then stop.
			s.mu.Lock()
			s.refillActive = false
			s.mu.Unlock()
			d.failQueued()
			return
		}
		d.schedule()
	}
}

// hydrateBatch reads a claimed cold batch's specs back by their Locs,
// rebuilds the jobs and moves them to the queued-hot state. The spill
// records are deliberately kept (see the package comment: after a checkpoint
// they are the specs' only durable copy). A job whose spec cannot be read
// fails terminally — unless the dispatcher is closing, in which case it is
// stranded like any other queued work and recovers on the next start.
func (d *Dispatcher) hydrateBatch(batch []*liveJob) []*Job {
	locs := make([]journal.Loc, len(batch))
	for i, lj := range batch {
		locs[i] = lj.loc
	}
	// read[i] is batch[i]'s job rebuilt from its record; nil if unread.
	read := make([]*Job, len(batch))
	var err error
	if sp := d.spillLoaded(); sp != nil {
		err = sp.ReadBatch(locs, func(i int, r journal.Record) { read[i] = jobFromRecord(r) })
		d.stats.spillReads.Add(1)
	} else {
		err = errors.New("dispatch: spill store unavailable")
	}
	if err != nil {
		d.spillFailure(err)
	}
	jobs := read[:0] // the rebuilt jobs, compacted in place
	d.mu.Lock()
	for i, lj := range batch {
		j := read[i]
		if j == nil {
			d.specLostLocked(lj)
			continue
		}
		j.live, j.seq, j.retries, j.submitted = lj, lj.seq, int(lj.retries), time.Unix(0, lj.submitted)
		lj.job = j
		d.setStateLocked(lj, queuedHot)
		jobs = append(jobs, j)
	}
	d.mu.Unlock()
	return jobs
}

// ---------------------------------------------------------------------------
// Online journal checkpoint

// maybeCheckpoint, called from the janitor tick, triggers an online
// checkpoint once the journal spans more than d.compact segment files
// (compactSegments unless a test lowered it). Failures are retried on the
// next tick: a degraded journal refuses to checkpoint until its commit retry
// succeeds.
func (d *Dispatcher) maybeCheckpoint() {
	if d.jnl == nil || d.compact < 0 {
		return
	}
	ck, ok := d.jnl.(journal.Checkpointer)
	if !ok {
		return
	}
	if ck.Segments() <= d.compact {
		return
	}
	_ = d.CompactJournal() // the outcome is kept for Health and logged there
}

// CompactJournal re-journals the dispatcher's live state through an online
// checkpoint (journal.Checkpointer), dropping the journal's older segments.
// Scheduling keeps running: appends made while the snapshot is taken buffer
// in the WAL and land after the snapshot records, replaying on top of them.
// Safe to call at any time; concurrent calls serialize. The outcome is kept
// for Health: a failure is checkpoint-failing (logged when a run of failures
// begins) until a later checkpoint succeeds, and a success makes the
// snapshot the durable copy of every record dropped before it began.
func (d *Dispatcher) CompactJournal() error {
	if d.jnl == nil {
		return nil
	}
	ck, ok := d.jnl.(journal.Checkpointer)
	if !ok {
		return errors.New("dispatch: journal does not support online checkpoints")
	}
	d.checkpointMu.Lock()
	defer d.checkpointMu.Unlock()
	dropped := d.stats.journalErrors.Load()
	if err := ck.Checkpoint(d.snapshotLive); err != nil {
		if d.checkpointErr.Swap(&err) == nil {
			log.Printf("dispatch: online journal checkpoint failed (will retry): %v", err)
		}
		return err
	}
	d.checkpointErr.Store(nil)
	d.droppedAtCheckpoint.Store(dropped)
	return nil
}

// snapshotLive emits a self-contained durable snapshot of every live job: one
// walk of the job table by state, emitted in submit-sequence order so a
// recovery from the checkpoint keeps FIFO. The state is gathered under d.mu
// into memory first, then emitted after it is released, so the disk writes
// never stall dispatch. Consistency does not depend on holding the lock
// through the emit: every transition changes the table before (or atomically
// with) its journal record, and the checkpoint holds the WAL's commit mutex,
// so a transition journaled concurrently lands after the snapshot in replay
// order and applies on top of it.
func (d *Dispatcher) snapshotLive(emit func(journal.Record) error) error {
	type snap struct {
		seq        int64
		id         string
		retries    int
		job        *Job // nil for a cold job; its Spec is immutable
		dispatched bool
		lj         *liveJob    // a cold job's entry
		loc        journal.Loc // and its spill record at the gather
	}
	var hot, cold []snap
	d.mu.Lock()
	for id, lj := range d.jobs {
		if lj.state == queuedCold {
			cold = append(cold, snap{seq: lj.seq, id: id, retries: int(lj.retries), lj: lj, loc: lj.loc})
		} else {
			hot = append(hot, snap{seq: lj.job.seq, id: id, retries: lj.job.retries, job: lj.job, dispatched: lj.state == running})
		}
	}
	d.mu.Unlock()
	bySeq := func(s []snap) {
		sort.Slice(s, func(i, k int) bool { return s[i].seq < s[k].seq })
	}
	bySeq(hot)
	bySeq(cold)

	// retried re-journals a job's consumed retry budget behind its spec.
	retried := func(sn snap) error {
		if sn.retries == 0 {
			return nil
		}
		return emit(journal.Record{Kind: journal.Retried, JobID: sn.id, Attempt: sn.retries})
	}
	for _, sn := range hot {
		if err := emit(submittedRecord(sn.job)); err != nil {
			return err
		}
		if err := retried(sn); err != nil {
			return err
		}
		if sn.dispatched {
			if err := emit(journal.Record{Kind: journal.Dispatched, JobID: sn.id}); err != nil {
				return err
			}
		}
	}
	if len(cold) == 0 {
		return nil
	}
	sp := d.spillLoaded()
	if sp == nil {
		return errors.New("dispatch: cold-queued jobs but no spill store")
	}
	if d.spillDurable && sp.Sync() == nil {
		// The spill store survives restarts: reference each cold job with a
		// tiny SpillRef instead of copying a (possibly million-entry) backlog
		// of specs into the WAL. The Sync made every gathered job's record
		// durable before any SpillRef is emitted.
		for _, sn := range cold {
			if err := emit(journal.Record{Kind: journal.SpillRef, JobID: sn.id, Attempt: sn.retries}); err != nil {
				return err
			}
		}
		return nil
	}
	// Ephemeral spill, or a durable store that can no longer write (its
	// error is sticky): the snapshot must stand alone, so cold specs are
	// re-journaled in full. A record that was Put but never written reads
	// back from the store's pending buffer.
	locs := make([]journal.Loc, refillBatch)
	got := make([]*journal.Record, refillBatch)
	for len(cold) > 0 {
		chunk := cold[:min(len(cold), refillBatch)]
		cold = cold[len(chunk):]
		clear(got)
		for i, sn := range chunk {
			locs[i] = sn.loc
		}
		rerr := sp.ReadBatch(locs[:len(chunk)], func(i int, r journal.Record) { got[i] = &r })
		for i, sn := range chunk {
			r := got[i]
			if r == nil && rerr != nil {
				// The record went with its job since the gather: emit the job
				// as it is now, if it is still live.
				var err error
				if r, err = d.recheckCold(sn.lj); err != nil {
					return fmt.Errorf("dispatch: reading spilled specs for checkpoint: %w", errors.Join(rerr, err))
				}
			}
			if r == nil {
				continue // left the job table since the gather (stolen/terminal)
			}
			if err := emit(*r); err != nil {
				return err
			}
			if err := retried(sn); err != nil {
				return err
			}
		}
	}
	return nil
}

// recheckCold is the checkpoint's second look at a cold job whose record it
// could not read at the Loc it gathered: the job may since have left the job
// table (nil) or been rehydrated (its spec is in memory). A job still cold
// keeps its Loc — only a recovered job spills again, and that is inside New,
// before any checkpoint — so its spec is lost.
func (d *Dispatcher) recheckCold(lj *liveJob) (*journal.Record, error) {
	d.mu.Lock()
	live := d.jobs[lj.jobID] == lj
	j := lj.job
	d.mu.Unlock()
	switch {
	case !live:
		return nil, nil
	case j != nil:
		r := submittedRecord(j)
		return &r, nil
	}
	return nil, errors.New("dispatch: a live cold job's spec is unreadable")
}

// ---------------------------------------------------------------------------
// Introspection

// SpilledJobs reports jobs currently in the cold tails (including batches
// mid-rehydration).
func (d *Dispatcher) SpilledJobs() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.coldN.Load()
	}
	return int(n)
}

// SpillBytes reports the on-disk footprint of the live spilled specs.
func (d *Dispatcher) SpillBytes() int64 {
	if sp := d.spillLoaded(); sp != nil {
		return sp.Bytes()
	}
	return 0
}

// JournalSegments reports how many segment files the journal spans; 0 when no
// journal is configured or it does not expose segmentation.
func (d *Dispatcher) JournalSegments() int {
	if ck, ok := d.jnl.(journal.Checkpointer); ok {
		return ck.Segments()
	}
	return 0
}

// JournalDegraded reports whether the journal's last commit attempt failed —
// appends are buffering and retrying, but nothing new is reaching the disk.
func (d *Dispatcher) JournalDegraded() bool {
	type degrader interface{ Degraded() bool }
	if dg, ok := d.jnl.(degrader); ok {
		return dg.Degraded()
	}
	return false
}
