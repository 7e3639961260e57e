package router

import (
	"errors"
	"sync"
	"time"

	"jets/internal/dispatch"
	"jets/internal/proto"
)

// errPeerDown marks a placement attempt against a disconnected peer; the
// router rotates the job to another member rather than failing it.
var errPeerDown = errors.New("router: peer link down")

// peerLink maintains the router's connection to one out-of-process
// dispatcher instance. It dials, attaches with the router's outstanding-job
// set for that member, reconciles (re-placing jobs the instance no longer
// knows — its journal recovery keeps the rest), and then relays frames until
// the connection drops, at which point it redials with backoff. The attach
// handshake makes restarts transparent: a kill -9'd instance comes back,
// replays its own WAL, and the re-attach re-subscribes the router to every
// recovered job while resubmitting the ones that missed the journal's group
// commit — at-least-once execution, exactly-once completion per router
// handle.
type peerLink struct {
	r    *Router
	idx  int
	addr string

	mu        sync.Mutex
	codec     *proto.Codec
	connected bool
	load      proto.LoadReport
	loadAt    time.Time

	stealCh chan []dispatch.StolenJob

	quit chan struct{}
}

func newPeerLink(r *Router, idx int, addr string) *peerLink {
	p := &peerLink{
		r:       r,
		idx:     idx,
		addr:    addr,
		stealCh: make(chan []dispatch.StolenJob, 1),
		quit:    make(chan struct{}),
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		p.run()
	}()
	return p
}

func (p *peerLink) stop() {
	select {
	case <-p.quit:
	default:
		close(p.quit)
	}
	p.mu.Lock()
	if p.codec != nil {
		p.codec.Close()
	}
	p.mu.Unlock()
}

// send relays one envelope if the link is up. A send error drops the
// connection; the run loop's reconcile-on-reattach resubmits anything the
// instance never received, so callers only need to handle errPeerDown.
func (p *peerLink) send(env *proto.Envelope) error {
	p.mu.Lock()
	codec, ok := p.codec, p.connected
	p.mu.Unlock()
	if !ok {
		return errPeerDown
	}
	if err := codec.Send(env); err != nil {
		codec.Close() // recv loop notices and redials
		return errPeerDown
	}
	return nil
}

// sample returns the last load report; ok is false when the link is down or
// the report is stale (the instance stopped talking), which removes the
// member from placement and steal consideration.
func (p *peerLink) sample() (proto.LoadReport, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.connected || time.Since(p.loadAt) > 2*time.Second {
		return proto.LoadReport{}, false
	}
	return p.load, true
}

// steal asks the peer for up to max queued jobs destined for member dest.
// One request is in flight at a time (only the router's steal pass calls
// this), so the reply channel needs no correlation.
func (p *peerLink) steal(max int, dest string) []dispatch.StolenJob {
	select { // drop a stale reply from a timed-out earlier request
	case <-p.stealCh:
	default:
	}
	err := p.send(&proto.Envelope{Kind: proto.KindStealRequest, StealRequest: &proto.StealRequest{Max: max, Dest: dest}})
	if err != nil {
		return nil
	}
	select {
	case jobs := <-p.stealCh:
		return jobs
	case <-time.After(500 * time.Millisecond):
		return nil
	case <-p.quit:
		return nil
	}
}

func (p *peerLink) run() {
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.quit:
			return
		default:
		}
		codec, err := p.dialAttach()
		if err != nil {
			select {
			case <-time.After(backoff):
			case <-p.quit:
				return
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		p.recvLoop(codec)
		p.mu.Lock()
		p.connected = false
		p.codec = nil
		p.mu.Unlock()
		codec.Close()
	}
}

// dialAttach establishes one attached session: dial, send PeerAttach with
// our outstanding set for this member, and reconcile against the live set
// the instance reports.
func (p *peerLink) dialAttach() (*proto.Codec, error) {
	codec, err := proto.Dial(p.addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	outstanding := p.r.assignedTo(p.idx)
	err = codec.Send(&proto.Envelope{
		Kind: proto.KindPeerAttach,
		PeerAttach: &proto.PeerAttach{
			PeerID:      p.r.id,
			Outstanding: outstanding,
			LoadEvery:   p.r.cfg.LoadEvery,
		},
	})
	if err != nil {
		codec.Close()
		return nil, err
	}
	reply, err := codec.Recv()
	if err != nil || reply.Kind != proto.KindPeerAttached || reply.PeerInfo == nil {
		codec.Close()
		if err == nil {
			err = errors.New("router: unexpected attach reply")
		}
		return nil, err
	}
	p.mu.Lock()
	p.codec = codec
	p.connected = true
	p.loadAt = time.Now() // grace period until the first report
	p.mu.Unlock()
	p.r.reconcile(p.idx, reply.PeerInfo.Live)
	return codec, nil
}

func (p *peerLink) recvLoop(codec *proto.Codec) {
	for {
		env, err := codec.Recv()
		if err != nil {
			return
		}
		switch env.Kind {
		case proto.KindJobDone:
			if jd := env.JobDone; jd != nil {
				p.r.jobDone(p.idx, jd.JobID, dispatch.JobResult{
					JobID:   jd.JobID,
					Failed:  jd.Failed,
					Err:     jd.Err,
					Retries: jd.Retries,
				}, jd.Rejected)
			}
		case proto.KindOutput:
			if out := env.Output; out != nil && p.r.cfg.OnOutput != nil {
				p.r.cfg.OnOutput(out.TaskID, out.Stream, out.Data)
			}
		case proto.KindLoadReport:
			if env.LoadReport != nil {
				p.mu.Lock()
				p.load = *env.LoadReport
				p.loadAt = time.Now()
				p.mu.Unlock()
			}
		case proto.KindStealReply:
			if env.StealReply == nil {
				continue
			}
			jobs := make([]dispatch.StolenJob, len(env.StealReply.Jobs))
			for i := range env.StealReply.Jobs {
				jobs[i] = stolenJobOf(&env.StealReply.Jobs[i])
			}
			select {
			case p.stealCh <- jobs:
			default:
				// The requester timed out: these jobs left the victim and
				// must not be dropped. Adopt them directly.
				p.r.adoptStolen(p.idx, jobs)
			}
		default:
		}
	}
}

// stolenJobOf rebuilds a job from its wire form (mirror of the dispatch
// side's conversion).
func stolenJobOf(ps *proto.PeerSubmit) dispatch.StolenJob {
	sj := dispatch.StolenJob{
		Type:     dispatch.JobType(ps.JobType),
		Priority: ps.Priority,
		Retries:  ps.Retries,
	}
	sj.Spec.JobID = ps.JobID
	sj.Spec.NProcs = ps.NProcs
	sj.Spec.Cmd = ps.Cmd
	sj.Spec.Args = ps.Args
	sj.Spec.Env = ps.Env
	sj.Spec.Dir = ps.Dir
	sj.Spec.WallLimit = ps.WallLimit
	return sj
}

// peerSubmitEnv flattens a placement into its wire form.
func peerSubmitEnv(sj dispatch.StolenJob, stolen bool) *proto.Envelope {
	return &proto.Envelope{Kind: proto.KindPeerSubmit, PeerSubmit: &proto.PeerSubmit{
		JobID:     sj.Spec.JobID,
		JobType:   int(sj.Type),
		Priority:  sj.Priority,
		NProcs:    sj.Spec.NProcs,
		Cmd:       sj.Spec.Cmd,
		Args:      sj.Spec.Args,
		Env:       sj.Spec.Env,
		Dir:       sj.Spec.Dir,
		WallLimit: sj.Spec.WallLimit,
		Stolen:    stolen,
		Retries:   sj.Retries,
	}}
}
