package dispatch

// Federation surface: what one dispatcher instance exposes to the work
// router tier (internal/router). The router partitions submissions across N
// instances and rebalances queued work between them; this file provides the
// instance side of that contract:
//
//   - StealQueued / SubmitStolen move *queued* (never running) jobs between
//     instances, generalizing the intra-dispatcher shard steal (steal.go)
//     one level up. The victim journals a Migrated record — terminal locally
//     — and the thief journals a fresh Submitted record, so each instance's
//     WAL stays self-contained across migrations.
//
//   - servePeer speaks the same wire protocol on the same listener
//     workers use: a KindPeerAttach first frame (instead of KindRegister)
//     selects the peer path, so remote routers need no new port and workers
//     and clients need no changes.
//
//   - LiveJobs / HandleOf / Load expose the reconciliation and balancing
//     inputs the router needs; in-process federation calls them directly,
//     remote federation gets them via PeerAttached and LoadReport frames.

import (
	"errors"
	"math"
	"strings"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/proto"
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
	Spec     hydra.JobSpec
	Type     JobType
	Priority int
	Retries  int
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
		out = append(out, StolenJob{Spec: j.Spec, Type: j.Type, Priority: j.Priority, Retries: j.retries})
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
	j := &Job{Spec: sj.Spec, Type: sj.Type, Priority: sj.Priority, retries: sj.Retries}
	if err := d.admit([]*Job{j}, placeFront); err != nil {
		if errors.Is(err, errShutDown) {
			err = ErrDraining
		}
		return nil, err
	}
	return &j.live.Handle, nil
}

// LiveJobs returns the IDs of every job this instance considers in flight:
// queued, running, or parked in a retry backoff. The router reconciles its
// routing table against this set after an instance restarts.
func (d *Dispatcher) LiveJobs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.jobs))
	for id := range d.jobs {
		ids = append(ids, id)
	}
	return ids
}

// HandleOf returns the live job's handle. A router re-attaching after a
// restart subscribes to recovered jobs through this; a false return means
// the job is not live here (never arrived, or already terminal).
func (d *Dispatcher) HandleOf(id string) (*Handle, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lj, ok := d.jobs[id]
	if !ok {
		return nil, false
	}
	return &lj.Handle, true
}

// Load samples the balancing inputs the router's least-loaded and steal
// decisions run on. Advisory (lock-free mirrors), like the scheduling pass
// itself.
func (d *Dispatcher) Load() (queued, running, idle, workers int) {
	return d.queuedCount(), d.RunningJobs(), d.idleCount(), d.Workers()
}

// Draining reports whether Shutdown has begun: a draining instance refuses
// stolen work and should stop being offered new placements.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// Instance returns the configured instance name (Config.Instance); the
// router uses it as the member's stable routing name.
func (d *Dispatcher) Instance() string { return d.cfg.Instance }

// ---------------------------------------------------------------------------
// Remote peer links (router process ≠ dispatcher process)

// registerPeerOutput subscribes an attached router to the output chunks of
// one peer-submitted job. Without this, a job routed to an out-of-process
// member would run fine but its stdout would stay on the executing instance,
// invisible to the router-side client.
func (d *Dispatcher) registerPeerOutput(jobID string, out *proto.Outbox) {
	d.peerOutMu.Lock()
	if _, ok := d.peerOut[jobID]; !ok {
		d.peerOutN.Add(1)
	}
	d.peerOut[jobID] = out
	d.peerOutMu.Unlock()
}

// unregisterPeerOutput drops the subscription at job completion. The outbox
// identity check keeps a stale link's teardown (callbacks wired before a
// reattach) from dropping the subscription the new link just registered.
func (d *Dispatcher) unregisterPeerOutput(jobID string, out *proto.Outbox) {
	d.peerOutMu.Lock()
	if d.peerOut[jobID] == out {
		delete(d.peerOut, jobID)
		d.peerOutN.Add(-1)
	}
	d.peerOutMu.Unlock()
}

// dropPeerOutputs sweeps every subscription held by a disconnecting link;
// the router's reconcile-on-reattach re-registers the jobs still live here.
func (d *Dispatcher) dropPeerOutputs(out *proto.Outbox) {
	d.peerOutMu.Lock()
	for id, o := range d.peerOut {
		if o == out {
			delete(d.peerOut, id)
			d.peerOutN.Add(-1)
		}
	}
	d.peerOutMu.Unlock()
}

// relayPeerOutput queues one output chunk for the router attached to its
// job, if any. Task IDs are jobID+"/seq" or jobID+"/rankN" (see launch and
// hydra.Decompose).
func (d *Dispatcher) relayPeerOutput(o *proto.Output) {
	jobID := o.TaskID
	if i := strings.LastIndexByte(jobID, '/'); i >= 0 {
		jobID = jobID[:i]
	}
	d.peerOutMu.Lock()
	link := d.peerOut[jobID]
	d.peerOutMu.Unlock()
	if link != nil {
		link.Push(&proto.Envelope{Kind: proto.KindOutput, Output: o})
	}
}

// servePeer runs one attached router connection. The first frame (already
// read by serveWorker) carries the router's outstanding-job set; the reply
// reports which of those are live here. Completion callbacks for them are
// wired only after the reply is queued, so FIFO puts every JobDone behind
// it; OnDone fires at once for a handle that completed in between, so no
// completion falls in a gap. Thereafter the link carries
// PeerSubmit/StealRequest inbound and JobDone/LoadReport outbound until
// either side closes.
//
// Every outbound frame goes through the link's outbox, unbounded because
// dropping a JobDone would strand the router-side handle forever (the
// backlog is bounded by the number of live jobs). Completion callbacks run
// under Dispatcher.mu and must not write, so every other frame is pushed
// too, keeping the link's frames in one order. serveWorker's deferred close
// frees a drain blocked on a router that stopped reading.
func (d *Dispatcher) servePeer(codec *proto.Codec, first *proto.Envelope) {
	attach := first.PeerAttach
	out := proto.NewOutbox(codec, 0)
	defer func() {
		d.dropPeerOutputs(out)
		out.Close()
	}()

	notify := func(h *Handle) {
		d.registerPeerOutput(h.JobID(), out)
		h.OnDone(func(res JobResult) {
			d.unregisterPeerOutput(res.JobID, out)
			out.Push(&proto.Envelope{Kind: proto.KindJobDone, JobDone: &proto.JobDone{
				JobID:   res.JobID,
				Failed:  res.Failed,
				Err:     res.Err,
				Retries: res.Retries,
			}})
		})
	}

	info := &proto.PeerInfo{}
	var live []*Handle
	for _, id := range attach.Outstanding {
		if h, ok := d.HandleOf(id); ok {
			info.Live = append(info.Live, id)
			live = append(live, h)
		}
	}
	out.Push(&proto.Envelope{Kind: proto.KindPeerAttached, PeerInfo: info})
	for _, h := range live {
		notify(h)
	}

	// Periodic load reports drive the router's least-loaded placement and
	// steal scheduling without a request round trip per decision.
	loadEvery := attach.LoadEvery
	if loadEvery <= 0 {
		loadEvery = 50 * time.Millisecond
	}
	// The ticker only pushes, so the link tells it to quit and does not wait
	// for it: a report it pushes after the outbox closed is refused.
	tickerQuit := make(chan struct{})
	defer close(tickerQuit)
	go func() {
		t := time.NewTicker(loadEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				q, r, i, w := d.Load()
				out.Push(&proto.Envelope{Kind: proto.KindLoadReport, LoadReport: &proto.LoadReport{
					Queued: q, Running: r, Idle: i, Workers: w,
				}})
			case <-tickerQuit:
				return
			}
		}
	}()

	for {
		env, err := codec.Recv()
		if err != nil {
			return
		}
		switch env.Kind {
		case proto.KindPeerSubmit:
			if env.PeerSubmit == nil {
				continue
			}
			d.handlePeerSubmit(env.PeerSubmit, out, notify)
		case proto.KindStealRequest:
			if env.StealRequest == nil {
				continue
			}
			jobs := d.StealQueued(env.StealRequest.Max, env.StealRequest.Dest)
			reply := &proto.StealReply{Jobs: make([]proto.PeerSubmit, len(jobs))}
			for i, sj := range jobs {
				reply.Jobs[i] = peerSubmitOf(sj)
			}
			out.Push(&proto.Envelope{Kind: proto.KindStealReply, StealReply: reply})
		default:
		}
	}
}

// handlePeerSubmit places one routed job, replying with a Rejected JobDone
// if it cannot enter this instance (the router re-places or fails it —
// either way the job never ran here). A submit for an ID already live here
// is idempotent: it re-wires the completion callback instead of erroring,
// which is what a router retrying over a link that dropped mid-submit needs.
func (d *Dispatcher) handlePeerSubmit(ps *proto.PeerSubmit, out *proto.Outbox, notify func(*Handle)) {
	if h, ok := d.HandleOf(ps.JobID); ok {
		notify(h)
		return
	}
	// Subscribe the link to the job's output before the job can run, or its
	// first chunks may find no link to relay to.
	d.registerPeerOutput(ps.JobID, out)
	var (
		h   *Handle
		err error
	)
	if ps.Stolen {
		h, err = d.SubmitStolen(stolenJobOf(ps))
	} else {
		sj := stolenJobOf(ps)
		h, err = d.Submit(Job{Spec: sj.Spec, Type: sj.Type, Priority: sj.Priority})
	}
	if err != nil {
		d.unregisterPeerOutput(ps.JobID, out)
		out.Push(&proto.Envelope{Kind: proto.KindJobDone, JobDone: &proto.JobDone{
			JobID:    ps.JobID,
			Failed:   true,
			Rejected: true,
			Err:      err.Error(),
		}})
		return
	}
	notify(h)
}

// stolenJobOf rebuilds the dispatch-level job from its wire form.
func stolenJobOf(ps *proto.PeerSubmit) StolenJob {
	return StolenJob{
		Spec: hydra.JobSpec{
			JobID:     ps.JobID,
			NProcs:    ps.NProcs,
			Cmd:       ps.Cmd,
			Args:      ps.Args,
			Env:       ps.Env,
			Dir:       ps.Dir,
			WallLimit: ps.WallLimit,
		},
		Type:     JobType(ps.JobType),
		Priority: ps.Priority,
		Retries:  ps.Retries,
	}
}

// peerSubmitOf flattens a stolen job into its wire form.
func peerSubmitOf(sj StolenJob) proto.PeerSubmit {
	return proto.PeerSubmit{
		JobID:     sj.Spec.JobID,
		JobType:   int(sj.Type),
		Priority:  sj.Priority,
		NProcs:    sj.Spec.NProcs,
		Cmd:       sj.Spec.Cmd,
		Args:      sj.Spec.Args,
		Env:       sj.Spec.Env,
		Dir:       sj.Spec.Dir,
		WallLimit: sj.Spec.WallLimit,
		// Every StolenJob came out of StealQueued, so the destination uses
		// the front-of-queue stolen placement; a router's first placement of
		// a fresh submission sends Stolen false and goes through Submit.
		Stolen:  true,
		Retries: sj.Retries,
	}
}
