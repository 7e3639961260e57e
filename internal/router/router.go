package router

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/dispatch"
	"jets/internal/journal"
	"jets/internal/obs"
)

// Config configures a Router.
type Config struct {
	// Local lists in-process dispatcher instances; the router calls them
	// directly (no wire round trip). Names come from each instance's
	// Config.Instance, falling back to "inst<i>".
	Local []*dispatch.Dispatcher
	// LocalNames overrides the member name per Local entry (must be stable
	// across restarts — the routing-table journal records placements by
	// member name).
	LocalNames []string
	// Peers lists out-of-process dispatcher addresses; the router attaches
	// over the wire protocol and redials with backoff when a link drops.
	Peers []string
	// Journal, when non-nil, makes the routing table durable: accepted jobs
	// and their current placement replay on restart, and the router
	// re-attaches each member to reconcile. The router takes ownership and
	// closes it.
	Journal journal.Journal
	// Obs, when non-nil, exports the router's instrumentation.
	Obs *obs.Registry
	// StealInterval is the rebalancing cadence: each tick may move queued
	// jobs from the most backlogged member to an idle one. 0 defaults to
	// 25ms; negative disables stealing.
	StealInterval time.Duration
	// StealBatch bounds the jobs moved per steal pass (default 16).
	StealBatch int
	// LoadEvery is the cadence remote instances report load at (default
	// 50ms). Local instances are sampled directly.
	LoadEvery time.Duration
	// OnOutput receives task output chunks relayed back from out-of-process
	// members for jobs this router placed there; nil discards them. Local
	// members deliver output through their own dispatch.Config.OnOutput.
	OnOutput func(taskID, stream string, data []byte)
}

// member is one federated dispatcher: exactly one of local/peer is set.
type member struct {
	name  string
	local *dispatch.Dispatcher
	peer  *peerLink
}

// entry is one routed job's routing-table state. The handle is the stable
// client-facing handle; instance-level handles are rewired underneath it as
// the job migrates, and exactly one completion resolves it (the done flag
// arbitrates between a live completion, a stale link's duplicate, and a
// post-recovery re-execution).
type entry struct {
	sj       dispatch.StolenJob
	h        *dispatch.Handle
	member   int
	stolen   bool // placed via the front-of-queue stolen path at least once
	attempts int  // placement attempts; bounds the re-place rotation
	done     bool
}

// Router partitions work across dispatcher instances. See the package
// comment for the placement and rebalancing model.
type Router struct {
	cfg     Config
	id      string
	members []*member
	ring    *ring
	jnl     journal.Journal

	mu        sync.Mutex
	table     map[string]*entry
	recovered []*dispatch.Handle

	recoveryErr    error
	journalLogOnce sync.Once

	checkpointMu      sync.Mutex // serializes online checkpoints
	checkpointLogOnce sync.Once

	draining atomic.Bool
	closed   atomic.Bool
	quit     chan struct{}
	wg       sync.WaitGroup

	// pickOverride, when set (tests), forces placement of a job ID to a
	// member index, bypassing ring+load. The duplicate-ID check still runs
	// first — that is what the override exists to prove.
	pickOverride func(jobID string) (int, bool)

	stats struct {
		routed        atomic.Int64
		completed     atomic.Int64
		steals        atomic.Int64
		rejects       atomic.Int64
		journalErrors atomic.Int64
	}
}

// New builds the federation: recovers the routing table from the journal
// (if any), connects every member, reconciles local members immediately
// (remote ones reconcile as their links attach), and starts the steal pass.
func New(cfg Config) (*Router, error) {
	if len(cfg.Local)+len(cfg.Peers) == 0 {
		return nil, errors.New("router: no members configured")
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 25 * time.Millisecond
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = 16
	}
	if cfg.LoadEvery <= 0 {
		cfg.LoadEvery = 50 * time.Millisecond
	}
	r := &Router{
		cfg:   cfg,
		id:    "router",
		jnl:   cfg.Journal,
		table: make(map[string]*entry),
		quit:  make(chan struct{}),
	}
	var names []string
	for i, d := range cfg.Local {
		name := ""
		if i < len(cfg.LocalNames) {
			name = cfg.LocalNames[i]
		}
		if name == "" {
			name = d.Instance()
		}
		if name == "" {
			name = fmt.Sprintf("inst%d", i)
		}
		names = append(names, name)
		r.members = append(r.members, &member{name: name, local: d})
	}
	for _, addr := range cfg.Peers {
		names = append(names, addr)
		r.members = append(r.members, &member{name: addr})
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("router: duplicate member name %q", n)
		}
		seen[n] = true
	}
	r.ring = newRing(names)

	if r.jnl != nil {
		r.recoverJournal()
	}

	// Local members reconcile synchronously: wire completion callbacks for
	// the jobs the instance recovered itself, resubmit the ones it lost.
	for i, m := range r.members {
		if m.local == nil {
			continue
		}
		outstanding := r.assignedTo(i)
		var live []string
		for _, id := range outstanding {
			if h, ok := m.local.HandleOf(id); ok {
				live = append(live, id)
				r.mu.Lock()
				e := r.table[id]
				r.mu.Unlock()
				if e != nil {
					r.wire(e, i, h)
				}
			}
		}
		r.reconcile(i, live)
	}
	// Peer links attach (and reconcile) on their own goroutines.
	for i, m := range r.members {
		if m.local == nil {
			m.peer = newPeerLink(r, i, m.name)
		}
	}

	if cfg.StealInterval > 0 {
		r.wg.Add(1)
		go r.stealLoop()
	}
	if cfg.Obs != nil {
		r.registerObs(cfg.Obs)
	}
	return r, nil
}

func (r *Router) registerObs(reg *obs.Registry) {
	reg.CounterFunc("jets_router_jobs_routed_total", "jobs accepted and placed by the router", r.stats.routed.Load)
	reg.CounterFunc("jets_router_jobs_completed_total", "router-level job completions delivered", r.stats.completed.Load)
	reg.CounterFunc("jets_router_steals_total", "jobs migrated between instances by the steal pass", r.stats.steals.Load)
	reg.CounterFunc("jets_router_rejects_total", "placements refused by an instance and re-placed", r.stats.rejects.Load)
	reg.CounterFunc("jets_router_journal_errors_total", "routing-table journal records dropped after a write failure", r.stats.journalErrors.Load)
	reg.GaugeFunc("jets_router_live_jobs", "jobs in the routing table awaiting completion", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.table))
	})
	reg.GaugeFunc("jets_router_members", "configured federation members", func() float64 {
		return float64(len(r.members))
	})
	reg.GaugeFunc("jets_router_journal_segments", "routing-table WAL segment files on disk (checkpointing keeps this bounded)", func() float64 {
		return float64(r.JournalSegments())
	})
}

// JournalSegments reports the routing-table WAL's segment-file count (0
// without a segmented journal).
func (r *Router) JournalSegments() int {
	if ck, ok := r.jnl.(journal.Checkpointer); ok {
		return ck.Segments()
	}
	return 0
}

// compactSegments is how many segment files the routing-table journal may
// span before an online checkpoint rewrites it.
const compactSegments = 8

// maybeCheckpoint runs an online routing-table checkpoint when the journal
// has grown past compactSegments. Mirrors the dispatcher's
// online compaction: the startup Compact only ever ran once, so a long-lived
// router's WAL grew without bound (two records per accepted job, one per
// migration) until restart.
func (r *Router) maybeCheckpoint() {
	if r.jnl == nil {
		return
	}
	ck, ok := r.jnl.(journal.Checkpointer)
	if !ok || ck.Segments() <= compactSegments {
		return
	}
	r.checkpointMu.Lock()
	defer r.checkpointMu.Unlock()
	err := ck.Checkpoint(func(emit func(journal.Record) error) error {
		// Snapshot under r.mu, emit after: the checkpoint holds the WAL's
		// commit lock, so any append racing this snapshot lands as a pending
		// record flushed after it — replay applies it on top, last-wins.
		type snap struct {
			sj   dispatch.StolenJob
			node string
		}
		r.mu.Lock()
		snaps := make([]snap, 0, len(r.table))
		for _, e := range r.table {
			if e.done {
				continue
			}
			snaps = append(snaps, snap{sj: e.sj, node: r.members[e.member].name})
		}
		r.mu.Unlock()
		for _, s := range snaps {
			if err := emit(submittedRecord(s.sj)); err != nil {
				return err
			}
			if err := emit(journal.Record{Kind: journal.Migrated, JobID: s.sj.Spec.JobID, Node: s.node}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.checkpointLogOnce.Do(func() {
			log.Printf("router: online journal checkpoint failed (will retry): %v", err)
		})
	}
}

// Members reports the federation size.
func (r *Router) Members() int { return len(r.members) }

// ConnectedMembers reports how many members can take placements right now:
// every in-process instance, plus each remote peer whose attach handshake is
// currently up. Callers that submit immediately after New can poll this to
// avoid burning a job's placement rotation against still-dialing links.
func (r *Router) ConnectedMembers() int {
	n := 0
	for _, m := range r.members {
		if m.peer == nil {
			n++
			continue
		}
		m.peer.mu.Lock()
		if m.peer.connected {
			n++
		}
		m.peer.mu.Unlock()
	}
	return n
}

// MemberName returns the stable name of member i.
func (r *Router) MemberName(i int) string { return r.members[i].name }

// RecoveredJobs returns the handles of jobs rebuilt from the routing-table
// journal at startup, in original submission order.
func (r *Router) RecoveredJobs() []*dispatch.Handle {
	return append([]*dispatch.Handle(nil), r.recovered...)
}

// RecoveryError reports a journal replay failure during New (best-effort
// past the error point, like dispatch.RecoveryError).
func (r *Router) RecoveryError() error { return r.recoveryErr }

// LiveJobs reports the routing-table population.
func (r *Router) LiveJobs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.table)
}

func (r *Router) journalLocked(rec journal.Record) {
	if r.jnl == nil {
		return
	}
	if err := r.jnl.Append(rec); err != nil {
		r.stats.journalErrors.Add(1)
		r.journalLogOnce.Do(func() {
			log.Printf("router: journal append failed, routing table is no longer durable: %v", err)
		})
	}
}

func submittedRecord(sj dispatch.StolenJob) journal.Record {
	return journal.Record{
		Kind:      journal.Submitted,
		JobID:     sj.Spec.JobID,
		JobType:   int(sj.Type),
		Priority:  sj.Priority,
		NProcs:    sj.Spec.NProcs,
		Cmd:       sj.Spec.Cmd,
		Args:      sj.Spec.Args,
		Env:       sj.Spec.Env,
		Dir:       sj.Spec.Dir,
		WallLimit: sj.Spec.WallLimit,
	}
}

// recoverJournal rebuilds the routing table. Record semantics: Submitted
// carries the job spec, Migrated carries the current placement (last record
// wins — initial placement and every migration append one), Completed is
// terminal. Keeping placement out of the Submitted record means the WAL's
// per-kind encoding stays unchanged from the dispatcher's (old journals
// remain decodable); the pairing costs one extra small record per accept.
func (r *Router) recoverJournal() {
	type st struct {
		sj   dispatch.StolenJob
		node string
	}
	var order []string
	live := make(map[string]*st)
	r.recoveryErr = r.jnl.Replay(func(rec journal.Record) error {
		switch rec.Kind {
		case journal.Submitted:
			sj := dispatch.StolenJob{Type: dispatch.JobType(rec.JobType), Priority: rec.Priority}
			sj.Spec.JobID = rec.JobID
			sj.Spec.NProcs = rec.NProcs
			sj.Spec.Cmd = rec.Cmd
			sj.Spec.Args = rec.Args
			sj.Spec.Env = rec.Env
			sj.Spec.Dir = rec.Dir
			sj.Spec.WallLimit = rec.WallLimit
			if _, seen := live[rec.JobID]; !seen {
				order = append(order, rec.JobID)
			}
			live[rec.JobID] = &st{sj: sj}
		case journal.Migrated:
			if s := live[rec.JobID]; s != nil {
				s.node = rec.Node
			}
		case journal.Completed:
			delete(live, rec.JobID)
		}
		return nil
	})
	for _, id := range order {
		s, ok := live[id]
		if !ok {
			continue // completed in a previous life
		}
		delete(live, id) // resubmitted-after-complete IDs recover once
		mi := r.memberIndex(s.node)
		if mi < 0 {
			// Placement names a member no longer configured: reassign.
			mi = r.ring.owner(id)
		}
		e := &entry{sj: s.sj, h: dispatch.NewHandle(id), member: mi, stolen: true}
		r.table[id] = e
		r.recovered = append(r.recovered, e.h)
		r.journalLocked(submittedRecord(s.sj))
		r.journalLocked(journal.Record{Kind: journal.Migrated, JobID: id, Node: r.members[mi].name})
	}
	// Same compaction gate as dispatcher recovery: only drop the replayed
	// history once the re-journaled table is durable.
	if err := r.jnl.Sync(); err != nil {
		r.recoveryErr = errors.Join(r.recoveryErr,
			fmt.Errorf("router: re-journaled routing table not durable, keeping replayed segments: %w", err))
		return
	}
	if err := r.jnl.Compact(); err != nil {
		r.recoveryErr = errors.Join(r.recoveryErr,
			fmt.Errorf("router: compacting replayed journal segments: %w", err))
	}
}

func (r *Router) memberIndex(name string) int {
	for i, m := range r.members {
		if m.name == name {
			return i
		}
	}
	return -1
}

// assignedTo snapshots the IDs currently placed on member mi (the attach
// handshake's outstanding set).
func (r *Router) assignedTo(mi int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for id, e := range r.table {
		if e.member == mi && !e.done {
			ids = append(ids, id)
		}
	}
	return ids
}

// sample returns a member's load; ok is false for members that should not
// receive placements (disconnected peer, draining local instance).
func (r *Router) sample(mi int) (queued, running, idle, workers int, ok bool) {
	m := r.members[mi]
	if m.local != nil {
		if m.local.Draining() {
			return 0, 0, 0, 0, false
		}
		// Placement and stealing only need queue depth and idle count, both
		// advisory atomic sums; d.Load() would take the instance's scheduler
		// lock on every routed job — the very contention federation splits.
		return m.local.QueuedJobs(), 0, m.local.IdleWorkers(), 0, true
	}
	lr, ok := m.peer.sample()
	return lr.Queued, lr.Running, lr.Idle, lr.Workers, ok
}

// pickLocked chooses the member for a fresh submission: the consistent-hash
// owner unless it is unavailable or has no idle workers while another member
// does, in which case the most-idle available member takes it (least-loaded
// fallback). Caller holds r.mu.
func (r *Router) pickLocked(id string) int {
	if r.pickOverride != nil {
		if mi, ok := r.pickOverride(id); ok {
			return mi
		}
	}
	owner := r.ring.owner(id)
	_, _, ownerIdle, _, ownerOK := r.sample(owner)
	if ownerOK && ownerIdle > 0 {
		return owner
	}
	best, bestIdle, bestQueued := -1, -1, 0
	for i := range r.members {
		q, ru, idle, _, ok := r.sample(i)
		if !ok {
			continue
		}
		if idle > bestIdle || (idle == bestIdle && q+ru < bestQueued) {
			best, bestIdle, bestQueued = i, idle, q+ru
		}
	}
	switch {
	case best < 0:
		return owner // nobody reachable: keep hash affinity, the link retry resubmits
	case ownerOK && bestIdle <= 0:
		return owner // everyone saturated: hash affinity wins
	default:
		return best
	}
}

// Submit accepts one job and routes it. The returned handle is stable
// across migrations and instance restarts; it resolves exactly once.
//
// The duplicate check is federation-global: the routing table holds every
// live routed job regardless of which instance it currently sits on, so a
// duplicate ID is rejected even when hashing (or rebalancing) would have
// landed the two copies on different instances — the per-instance
// reservation alone cannot see that case.
func (r *Router) Submit(job dispatch.Job) (*dispatch.Handle, error) {
	if err := job.Spec.Validate(); err != nil {
		return nil, err
	}
	if job.Type == dispatch.Sequential && job.Spec.NProcs != 1 {
		return nil, fmt.Errorf("router: sequential job %q must have NProcs 1", job.Spec.JobID)
	}
	if r.closed.Load() || r.draining.Load() {
		return nil, errors.New("router: router is shut down")
	}
	id := job.Spec.JobID
	sj := dispatch.StolenJob{Spec: job.Spec, Type: job.Type, Priority: job.Priority}
	r.mu.Lock()
	if _, dup := r.table[id]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("router: duplicate job id %q", id)
	}
	mi := r.pickLocked(id)
	e := &entry{sj: sj, h: dispatch.NewHandle(id), member: mi}
	r.table[id] = e
	r.journalLocked(submittedRecord(sj))
	r.journalLocked(journal.Record{Kind: journal.Migrated, JobID: id, Node: r.members[mi].name})
	r.mu.Unlock()
	r.stats.routed.Add(1)
	// First placement goes straight to the member picked above — no point
	// re-locking to read back the fields this call just wrote.
	r.placeFrom(e, mi, sj, false)
	return e.h, nil
}

// SubmitBatch accepts a group of jobs as a whole (all-or-nothing
// validation and duplicate checking, like dispatch.SubmitBatch) and routes
// them with one table-lock acquisition, batching the per-member placements
// for local members so federation keeps the submit-side batching win.
func (r *Router) SubmitBatch(jobs []dispatch.Job) ([]*dispatch.Handle, error) {
	for i := range jobs {
		if err := jobs[i].Spec.Validate(); err != nil {
			return nil, err
		}
		if jobs[i].Type == dispatch.Sequential && jobs[i].Spec.NProcs != 1 {
			return nil, fmt.Errorf("router: sequential job %q must have NProcs 1", jobs[i].Spec.JobID)
		}
	}
	if r.closed.Load() || r.draining.Load() {
		return nil, errors.New("router: router is shut down")
	}
	handles := make([]*dispatch.Handle, len(jobs))
	entries := make([]*entry, len(jobs))
	perMember := make([][]int, len(r.members))
	r.mu.Lock()
	for i := range jobs {
		id := jobs[i].Spec.JobID
		if _, dup := r.table[id]; dup {
			for k := 0; k < i; k++ {
				delete(r.table, jobs[k].Spec.JobID)
			}
			r.mu.Unlock()
			return nil, fmt.Errorf("router: duplicate job id %q", id)
		}
		sj := dispatch.StolenJob{Spec: jobs[i].Spec, Type: jobs[i].Type, Priority: jobs[i].Priority}
		mi := r.pickLocked(id)
		e := &entry{sj: sj, h: dispatch.NewHandle(id), member: mi}
		r.table[id] = e
		entries[i] = e
		handles[i] = e.h
		perMember[mi] = append(perMember[mi], i)
	}
	for i := range jobs {
		r.journalLocked(submittedRecord(entries[i].sj))
		r.journalLocked(journal.Record{Kind: journal.Migrated, JobID: jobs[i].Spec.JobID, Node: r.members[entries[i].member].name})
	}
	r.mu.Unlock()
	r.stats.routed.Add(int64(len(jobs)))

	for mi, idxs := range perMember {
		if len(idxs) == 0 {
			continue
		}
		m := r.members[mi]
		if m.local != nil {
			group := make([]dispatch.Job, len(idxs))
			for k, i := range idxs {
				group[k] = jobs[i]
			}
			hs, err := m.local.SubmitBatch(group)
			if err == nil {
				for k, h := range hs {
					r.wire(entries[idxs[k]], mi, h)
				}
				continue
			}
			// The instance refused the batch as a whole (duplicate against a
			// directly submitted job, draining): fall through to per-entry
			// placement, which classifies and rotates per job.
		}
		for _, i := range idxs {
			r.place(entries[i])
		}
	}
	return handles, nil
}

// wire subscribes the router to an instance-level handle's completion. The
// callback captures the entry so the hot local-completion path skips the
// table lookup jobDone does for by-ID remote frames.
func (r *Router) wire(e *entry, mi int, h *dispatch.Handle) {
	h.OnDone(func(res dispatch.JobResult) {
		r.entryDone(e, mi, res, false)
	})
}

// place pushes an entry to its current member, rotating to the next member
// on a retryable refusal (draining instance, downed link) and failing the
// handle after every member has been tried twice or on a non-retryable
// error. Exits silently once the entry completes or the router closes.
func (r *Router) place(e *entry) {
	r.mu.Lock()
	if e.done || r.closed.Load() {
		r.mu.Unlock()
		return
	}
	mi, sj, stolen := e.member, e.sj, e.stolen
	r.mu.Unlock()
	r.placeFrom(e, mi, sj, stolen)
}

// placeFrom is place with the first attempt's target and payload already in
// hand — Submit calls it directly so the hot path does not reacquire the
// table lock just to read back fields it wrote moments earlier.
func (r *Router) placeFrom(e *entry, mi int, sj dispatch.StolenJob, stolen bool) {
	for {
		m := r.members[mi]
		var err error
		if m.local != nil {
			var h *dispatch.Handle
			if stolen {
				h, err = m.local.SubmitStolen(sj)
			} else {
				h, err = m.local.Submit(dispatch.Job{Spec: sj.Spec, Type: sj.Type, Priority: sj.Priority})
			}
			if err == nil {
				r.wire(e, mi, h)
				return
			}
			if isDuplicateErr(err) {
				// The instance already has this ID live: a link retry or
				// recovery resubmission raced an earlier copy. Re-subscribe
				// instead of failing — the live copy's completion is the one
				// the handle is waiting for.
				if h, ok := m.local.HandleOf(sj.Spec.JobID); ok {
					r.wire(e, mi, h)
					return
				}
			}
		} else {
			if err = m.peer.send(peerSubmitEnv(sj, stolen)); err == nil {
				return
			}
		}
		if !r.rotate(e, err) {
			return
		}
		r.mu.Lock()
		if e.done || r.closed.Load() {
			r.mu.Unlock()
			return
		}
		mi, sj, stolen = e.member, e.sj, e.stolen
		r.mu.Unlock()
	}
}

// rotate moves a refused entry to the next member, reporting whether
// another placement attempt should run. When the rotation budget is spent
// or the refusal is not retryable, the handle fails — journaled as
// Completed, so a restart does not resurrect a job every member refused.
func (r *Router) rotate(e *entry, err error) bool {
	retryable := errors.Is(err, dispatch.ErrDraining) || errors.Is(err, errPeerDown) || retryableMsg(err.Error())
	r.mu.Lock()
	if e.done {
		r.mu.Unlock()
		return false
	}
	e.attempts++
	if !retryable || e.attempts >= 2*len(r.members) {
		id := e.sj.Spec.JobID
		e.done = true
		delete(r.table, id)
		r.journalLocked(journal.Record{Kind: journal.Completed, JobID: id, Failed: true})
		r.mu.Unlock()
		r.stats.completed.Add(1)
		e.h.Complete(dispatch.JobResult{JobID: id, Failed: true, Err: err.Error(), Retries: e.sj.Retries})
		return false
	}
	e.member = (e.member + 1) % len(r.members)
	e.stolen = true // re-placements go to the front: the job is not new work
	r.journalLocked(journal.Record{Kind: journal.Migrated, JobID: e.sj.Spec.JobID, Node: r.members[e.member].name})
	r.mu.Unlock()
	r.stats.rejects.Add(1)
	return true
}

// retryableMsg classifies a remote rejection string the way rotate
// classifies local errors (the error crossed the wire, so errors.Is cannot).
func retryableMsg(msg string) bool {
	return strings.Contains(msg, "draining") || strings.Contains(msg, "shut down")
}

func isDuplicateErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "duplicate job id")
}

// jobDone resolves a completion that arrived by ID — remote JobDone frames,
// which carry no entry reference. Local completions go straight to
// entryDone through the closure wire installed.
func (r *Router) jobDone(mi int, id string, res dispatch.JobResult, rejected bool) {
	r.mu.Lock()
	e := r.table[id]
	r.mu.Unlock()
	if e == nil {
		return
	}
	r.entryDone(e, mi, res, rejected)
}

// entryDone is the single completion sink: local handles (via wire) and
// remote JobDone frames both land here. The entry's done flag makes
// delivery exactly-once per router handle no matter how many placements,
// link retries, or recoveries the job went through.
func (r *Router) entryDone(e *entry, mi int, res dispatch.JobResult, rejected bool) {
	r.mu.Lock()
	if e.done {
		r.mu.Unlock()
		return
	}
	if rejected {
		if e.member != mi {
			// A stale placement's verdict: the job has since moved on.
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		if r.rotate(e, errors.New(res.Err)) {
			r.place(e)
		}
		return
	}
	e.done = true
	id := e.sj.Spec.JobID
	delete(r.table, id)
	r.journalLocked(journal.Record{Kind: journal.Completed, JobID: id, Failed: res.Failed})
	r.mu.Unlock()
	r.stats.completed.Add(1)
	e.h.Complete(res)
}

// reconcile runs after a member (re)attaches: every table entry placed on
// it that the instance does not report live was lost (crash before the
// journal's group commit, or a submit that never arrived) and is
// resubmitted — at-least-once execution, exactly-once handle completion.
func (r *Router) reconcile(mi int, live []string) {
	set := make(map[string]struct{}, len(live))
	for _, id := range live {
		set[id] = struct{}{}
	}
	var lost []*entry
	r.mu.Lock()
	for id, e := range r.table {
		if e.member != mi || e.done {
			continue
		}
		if _, ok := set[id]; !ok {
			e.stolen = true // recovered work re-places at the front
			lost = append(lost, e)
		}
	}
	r.mu.Unlock()
	for _, e := range lost {
		r.place(e)
	}
}

// adoptStolen re-places jobs that left a victim after the steal pass
// stopped waiting for them (late StealReply). They are already out of the
// victim's state, so they must be placed somewhere; the ring owner of each
// is as good a home as any.
func (r *Router) adoptStolen(victim int, jobs []dispatch.StolenJob) {
	for _, sj := range jobs {
		r.migrateTo(victim, r.ring.owner(sj.Spec.JobID), sj)
	}
}

// migrateTo updates the table for one stolen job and places it on the
// thief. Jobs stolen from an instance but absent from the table (submitted
// directly to the instance, not through the router) are adopted with a
// detached handle so the work is not lost.
func (r *Router) migrateTo(victim, thief int, sj dispatch.StolenJob) {
	id := sj.Spec.JobID
	r.mu.Lock()
	e := r.table[id]
	if e == nil {
		e = &entry{sj: sj, h: dispatch.NewHandle(id)}
		r.table[id] = e
		r.journalLocked(submittedRecord(sj))
	}
	if e.done {
		r.mu.Unlock()
		return
	}
	e.sj.Retries = sj.Retries // the victim's accounting is current
	e.member = thief
	e.stolen = true
	r.journalLocked(journal.Record{Kind: journal.Migrated, JobID: id, Node: r.members[thief].name})
	r.mu.Unlock()
	r.stats.steals.Add(1)
	r.place(e)
}

func (r *Router) stealLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.stealOnce()
			r.maybeCheckpoint()
		case <-r.quit:
			return
		}
	}
}

// stealOnce runs one rebalancing pass: the most idle member with an empty
// queue steals up to StealBatch of the oldest queued jobs from the most
// backlogged member. Running jobs never move.
func (r *Router) stealOnce() {
	if len(r.members) < 2 {
		return
	}
	thief, thiefIdle := -1, 0
	victim, victimQueued := -1, 0
	for i := range r.members {
		q, _, idle, _, ok := r.sample(i)
		if !ok {
			continue
		}
		if q == 0 && idle > thiefIdle {
			thief, thiefIdle = i, idle
		}
		if q > victimQueued {
			victim, victimQueued = i, q
		}
	}
	if thief < 0 || victim < 0 || thief == victim {
		return
	}
	max := victimQueued
	if max > r.cfg.StealBatch {
		max = r.cfg.StealBatch
	}
	m := r.members[victim]
	var jobs []dispatch.StolenJob
	if m.local != nil {
		jobs = m.local.StealQueued(max, r.members[thief].name)
	} else {
		jobs = m.peer.steal(max, r.members[thief].name)
	}
	for _, sj := range jobs {
		r.migrateTo(victim, thief, sj)
	}
}

// Drain blocks until the routing table is empty (every accepted job
// delivered its completion), or ctx ends.
func (r *Router) Drain(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if r.LiveJobs() == 0 {
			return nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Shutdown stops accepting submissions, drains the routing table (bounded
// by ctx), and closes the router. Member instances are not shut down — the
// owner that built them decides their fate (core.Engine shuts local
// instances down after the router).
func (r *Router) Shutdown(ctx context.Context) error {
	r.draining.Store(true)
	err := r.Drain(ctx)
	r.Close()
	return err
}

// Close stops the steal pass and every peer link, resolves still-live
// handles with ErrDispatcherClosed — without Completed records, so a
// journal-backed router resurrects them on the next start — and closes the
// journal.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.quit)
	for _, m := range r.members {
		if m.peer != nil {
			m.peer.stop()
		}
	}
	r.wg.Wait()
	var stranded []*entry
	r.mu.Lock()
	for id, e := range r.table {
		if !e.done {
			e.done = true
			stranded = append(stranded, e)
		}
		delete(r.table, id)
	}
	r.mu.Unlock()
	for _, e := range stranded {
		e.h.Complete(dispatch.JobResult{
			JobID:   e.sj.Spec.JobID,
			Failed:  true,
			Err:     dispatch.ErrDispatcherClosed.Error(),
			Retries: e.sj.Retries,
		})
	}
	if r.jnl != nil {
		return r.jnl.Close()
	}
	return nil
}
