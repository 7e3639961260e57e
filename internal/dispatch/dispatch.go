// Package dispatch implements the central JETS scheduler: the service that
// pilot-job workers connect to and that transforms MPI job specifications
// into sets of Hydra proxy tasks streamed to available workers (paper §5,
// Fig. 4).
//
// The dispatcher observes the paper's architecture principles: socket
// handling, request handling, and process management are separate concurrent
// stages; workers that fail or hang are disregarded automatically; and the
// component composes into the stand-alone jets tool and the Swift executor
// (both through internal/core), or custom frameworks.
//
// Scheduling state is sharded (shard.go, steal.go): idle workers and queued
// jobs are spread over N independently locked shards keyed by worker
// coordinate plane, with sequence-arbitrated work stealing between shards.
// Dispatcher.mu guards only the worker registry, the job table
// (lifecycle.go), and the completed-job records.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/metrics"
	"jets/internal/obs"
	"jets/internal/proto"
)

// ErrDispatcherClosed fails the handle of any job stranded by Close — a job
// still in a shard queue, parked in a retry-backoff timer, or requeued after
// the sweep. With a journal configured the job itself is not lost: it stays
// live in the journal and is recovered on the next start.
var ErrDispatcherClosed = errors.New("dispatch: dispatcher closed")

// Config parameterizes the dispatcher.
type Config struct {
	// Addr to listen on; default "127.0.0.1:0".
	Addr string
	// Instance names this dispatcher when several share one process (and one
	// obs registry): every exported series gets an `instance="<name>"` label,
	// so a second instance no longer collides with the first's registrations
	// and silently loses its metrics. Empty keeps the unlabeled single-
	// instance series names.
	Instance string
	// HeartbeatTimeout after which a silent TCP worker is declared dead;
	// default 10s. Each TCP worker is told at registration to send a
	// heartbeat every tenth of it. A TCP worker silent for half this long is
	// also evicted eagerly when a new connection registers under the same
	// worker ID (reconnect after a network blip). Links from ServeConn are
	// in-process and cannot go silent: they send no heartbeats and are never
	// expired or evicted.
	HeartbeatTimeout time.Duration
	// MaxJobRetries bounds automatic resubmission of jobs that failed due
	// to worker loss (not application error); default 0.
	MaxJobRetries int
	// RetryBackoff delays each faulted job's resubmission, doubling per
	// attempt up to RetryBackoffMax. Without it a job that reliably kills
	// or faults its workers respins through the pool as fast as workers
	// rejoin — the §6.1.5 retry storm. The delay is timer-driven off the
	// dispatch path and honors Shutdown: a job backing off is still in the
	// job table, so Drain waits for it, and Close aborts the timers (failing
	// their handles with ErrDispatcherClosed). Zero means the 100ms default, consistent with
	// core.Options; only a negative value disables the delay entirely (the
	// pre-backoff immediate requeue).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the per-attempt doubling; default 5s, clamped
	// up to RetryBackoff.
	RetryBackoffMax time.Duration
	// Shards is the number of scheduling shards (idle-set + job-queue
	// slices with independent locks); default DefaultShards(), i.e.
	// GOMAXPROCS-derived.
	Shards int
	// NewQueue constructs one queue policy per shard; default NewFIFOQueue.
	// A policy that must order the whole backlog (priority, backfill) also
	// needs Shards: 1.
	NewQueue func() QueuePolicy
	// Group policy for MPI worker aggregation; default first-come-first-
	// served (the paper's policy).
	Group GroupPolicy
	// JobTimeout bounds each job's total wall time; 0 disables. MPI jobs
	// get it as the mpiexec watchdog, sequential jobs as the per-task
	// WallLimit, so a hung task cannot wedge a worker forever either way.
	JobTimeout time.Duration
	// OnOutput receives task output chunks; nil discards them. It runs
	// on each worker link's reader goroutine, so calls for chunks from
	// different links run concurrently: a callback that shares state
	// across tasks must lock it. Chunks from one link arrive in order.
	OnOutput func(taskID, stream string, data []byte)
	// OnEvent receives life-cycle trace events (see events.go); nil
	// disables tracing. Delivery is ordered but asynchronous.
	OnEvent func(Event)
	// Obs, when non-nil, exports the dispatcher's live counters, gauges,
	// and latency histograms through the registry (see instruments.go).
	// The histograms are maintained either way; export is sampling-only.
	Obs *obs.Registry
	// Journal, when non-nil, makes job state durable: accepted submissions,
	// dispatches, retries, and completions are appended to it, and New
	// replays any prior records — completed jobs are deduped, queued ones
	// rebuilt, and formerly running ones requeued through the retry path
	// (see recovery.go and internal/journal). The dispatcher takes
	// ownership and closes the journal on Close. nil keeps the seed's
	// in-memory-only behavior.
	//
	// Durability window: Submit/SubmitBatch return as soon as the Submitted
	// record is buffered; it becomes durable at the journal's next group
	// commit (the WAL's FsyncInterval, default 2 ms). A crash inside that
	// window can lose acked-but-unsynced submissions. Callers that need
	// acked-implies-durable should Sync the journal after submitting;
	// re-submitting after a crash is always safe because completed jobs
	// dedupe by ID at recovery.
	Journal journal.Journal
	// HotQueueJobs bounds the fully-hydrated jobs held in memory per
	// scheduling shard. Beyond it, newly placed jobs are spilled: the queue
	// keeps only the job's ID and scheduling metadata while the full spec is
	// persisted in a SpillStore, and a read-ahead path rehydrates specs in
	// batches as the hot window drains (spill.go). Zero means the default
	// (131072 per shard — generous enough that ordinary workloads never
	// spill); negative disables spilling entirely, restoring the unbounded
	// in-memory queue.
	HotQueueJobs int
	// SpillDir is the spill store's directory. Set it alongside Journal
	// (the engine uses <DataDir>/spill) so spilled specs survive restarts —
	// required for journal checkpoints to reference them via SpillRef
	// records. Empty uses a throwaway temp directory created on first
	// spill and removed at Close: spilling still bounds memory, but
	// checkpoints then re-journal cold specs in full.
	SpillDir string
}

// DefaultHotQueueJobs is the per-shard hot-window bound applied when
// Config.HotQueueJobs is zero.
const DefaultHotQueueJobs = 131072

// compactSegments is how many segment files the journal may span before
// the janitor runs an online checkpoint (re-journal the live state, drop
// older segments), bounding WAL growth over a long uptime.
const compactSegments = 8

// Stats are cumulative dispatcher counters.
type Stats struct {
	JobsSubmitted   int
	JobsCompleted   int
	JobsFailed      int
	JobsRetried     int
	TasksDispatched int
	WorkersJoined   int
	WorkersLost     int
	// Steals counts jobs launched through the cross-shard multi-lock path
	// (work stealing or cross-shard MPI group assembly).
	Steals int
	// JournalErrors counts records dropped because the journal's append
	// failed with its retry buffer full: those records are gone for good,
	// so nonzero means the dispatcher lost durability for part of its
	// workload. (A transient write/fsync failure alone no longer counts —
	// the WAL buffers and retries; see Dispatcher.JournalDegraded for the
	// live signal.)
	JournalErrors int
	// JobsSpilled counts jobs whose specs were written to the spill store
	// (cold-queue tail); SpillReads counts rehydration read batches.
	JobsSpilled int
	SpillReads  int
}

// statsCounters is the lock-free internal form of Stats.
type statsCounters struct {
	jobsSubmitted   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsFailed      atomic.Int64
	jobsRetried     atomic.Int64
	tasksDispatched atomic.Int64
	workersJoined   atomic.Int64
	workersLost     atomic.Int64
	steals          atomic.Int64
	jobsReplayed    atomic.Int64
	journalErrors   atomic.Int64
	jobsSpilled     atomic.Int64
	spillBytes      atomic.Int64
	spillReads      atomic.Int64
}

// workerConn is the dispatcher-side state of one pilot-job connection.
type workerConn struct {
	id    string
	reg   proto.Register
	codec *proto.Codec
	shard *shard // home scheduling shard, fixed at registration

	// out carries every frame to the worker (proto.Outbox): registered, the
	// stage replay and fan-outs, tasks, shutdown.
	out *proto.Outbox

	// local marks a link from ServeConn, an in-process pipe. It cannot go
	// silent while its worker lives, and a dead worker closes it, which the
	// reader sees; so it sends no heartbeats, and neither the janitor nor
	// register's eviction checks its lastSeen.
	local bool

	// lastSeen is the unix-nano time of the last inbound frame. It is
	// written by the connection's reader goroutine and read by the janitor
	// and the duplicate-registration eviction path without any lock, so
	// heartbeats never contend with dispatch.
	lastSeen atomic.Int64

	// gone flips once, when the worker is declared dead. Checked under the
	// shard lock by park and under Dispatcher.mu by the dispatch path,
	// so a worker can never be parked or tasked after teardown began;
	// workerGone closes the outbox where it sets gone.
	gone atomic.Bool

	// The worker's links in its home shard's idle set (idleset.go), guarded
	// by that shard's mutex. idleIn is the set while the worker is parked.
	idleIn             *idleSet
	idlePrev, idleNext *workerConn

	// tasks (taskID -> the rank of a job on this worker) is guarded by
	// Dispatcher.mu.
	tasks map[string]taskRef
}

// taskRef names one rank of a running job.
type taskRef struct {
	rj   *runningJob
	rank int
}

// touch records inbound traffic for the janitor's liveness check.
func (wc *workerConn) touch() { wc.lastSeen.Store(time.Now().UnixNano()) }

// runningJob tracks one dispatched job until every rank reports.
type runningJob struct {
	job     *Job
	exec    *hydra.MPIExec // nil for sequential jobs
	ranks   []rank         // one per task, in rank order
	pending int            // ranks that have not reported
	results []proto.Result // in completion order; becomes JobResult.TaskResults
	workers []string       // in rank order; becomes JobResult.Workers
	failed  bool
	faulted bool // failure caused by worker loss rather than the application
	errMsg  string
	start   time.Time

	// Storage for a one-rank job's rank, result and worker ID, so that its
	// launch costs one allocation: this runningJob.
	rank1   [1]rank
	result1 [1]proto.Result
	worker1 [1]string
}

// rank is one task of a running job: the frame that carries it and the
// worker it is bound to. A job's ranks are one allocation, envelopes and
// tasks included; the worker's outbox holds &env until it is written.
type rank struct {
	env     proto.Envelope
	task    proto.Task
	wc      *workerConn
	pending bool
}

// Dispatcher is the central JETS scheduler.
type Dispatcher struct {
	cfg   Config
	ln    net.Listener
	epoch time.Time

	shards []*shard
	subSeq atomic.Int64 // per-submit sequence numbers (FIFO/steal arbitration)
	subRR  atomic.Int64 // round-robin placement fallback

	// Lifecycle flags. draining is set first by Shutdown, before the drain
	// wait, so no Submit can slip a job in behind the drain; stopping is
	// set once the drain completes and tells newly idle workers to exit.
	draining atomic.Bool
	stopping atomic.Bool
	closed   atomic.Bool

	// subMu serializes the Submit-side draining check against Shutdown
	// setting draining: Submit holds it shared across its check-and-push,
	// Shutdown exclusively while flipping the flag, so when Shutdown's
	// drain begins no submission can still be mid-push.
	subMu sync.RWMutex

	mu          sync.Mutex
	workers     map[string]*workerConn
	workersPeak int // most workers registered at once
	// Completed jobs: running sums for the summary figures, plus the most
	// recent recordSample records as a ring (recentNext is the oldest once
	// full) — a campaign's completion log does not grow with its length.
	tally      metrics.Tally
	recent     []metrics.JobRecord
	recentNext int
	staged     []proto.Stage
	// jobs is the job table: every job in flight — queued hot or cold,
	// running, or in a retry backoff — from admit to resolveLocked
	// (lifecycle.go). An ID is reserved here atomically with its duplicate
	// check and stays reserved until the job resolves. byState counts the
	// entries per state.
	jobs    map[string]*liveJob
	byState [numStates]int

	// Durable state (recovery.go): the journal, the handles of jobs
	// rebuilt from it at startup, and the first replay error if any.
	// journalLogOnce gates the one-time log line when appends start failing
	// (the count is in stats.journalErrors).
	jnl            journal.Journal
	recovered      []*Handle
	recoveryErr    error
	journalLogOnce sync.Once

	// Queue spill (spill.go): the hot-window bound, the spill store holding
	// cold jobs' specs, and the checkpoint trigger state. spillMu guards the
	// lazy ephemeral open; spill itself is internally synchronized and, once
	// set, never changes.
	hotMax            int
	compact           int        // checkpoint past this many journal segments; negative never
	spillMu           sync.Mutex // guards the lazy ephemeral open (spill writes, spillFailed, spillTmpDir)
	spill             atomic.Pointer[journal.SpillStore]
	spillDurable      bool   // SpillDir configured: specs survive restarts
	spillFailed       bool   // ephemeral open failed once; don't retry every push
	spillTmpDir       string // ephemeral dir to remove at Close
	spillErrOnce      sync.Once
	checkpointMu      sync.Mutex // serializes CompactJournal runs
	checkpointLogOnce sync.Once

	stats statsCounters
	ins   *instruments

	idleWait chan struct{} // made by a waiting Drain, closed when a job leaves the table
	wg       sync.WaitGroup
	quit     chan struct{} // closed by Close: aborts the retry-backoff timers, stops the janitor

	// Lifecycle events (events.go): emit appends to evPending, and the
	// drainer swaps the whole batch out and delivers it without the lock.
	evMu          sync.Mutex
	evPending     []Event
	evReady       chan struct{} // one slot: evPending became non-empty; nil when tracing is off
	eventsQuit    chan struct{}
	evWG          sync.WaitGroup // tracks the drainer; Close waits for its flush
	droppedEvents atomic.Int64

	// peerOut routes output chunks of peer-submitted jobs back to the
	// attached router (federate.go). peerOutN mirrors len(peerOut) so the
	// per-chunk check on the output hot path is one atomic load when no
	// peer is attached.
	peerOutMu sync.Mutex
	peerOut   map[string]*proto.Outbox
	peerOutN  atomic.Int64
}

// New creates a dispatcher with defaults applied. Call Start to serve.
func New(cfg Config) *Dispatcher {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.NewQueue == nil {
		cfg.NewQueue = func() QueuePolicy { return NewFIFOQueue() }
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards()
	}
	if cfg.Group == nil {
		cfg.Group = FirstComeFirstServed
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 5 * time.Second
	}
	if cfg.RetryBackoffMax < cfg.RetryBackoff {
		cfg.RetryBackoffMax = cfg.RetryBackoff
	}
	if cfg.HotQueueJobs == 0 {
		cfg.HotQueueJobs = DefaultHotQueueJobs
	}
	d := &Dispatcher{
		cfg:     cfg,
		shards:  newShards(cfg.Shards, func() QueuePolicy { return cfg.NewQueue() }),
		workers: make(map[string]*workerConn),
		jobs:    make(map[string]*liveJob),
		peerOut: make(map[string]*proto.Outbox),
		jnl:     cfg.Journal,
		hotMax:  cfg.HotQueueJobs,
		compact: compactSegments,
		quit:    make(chan struct{}),
		ins:     newInstruments(cfg.Instance),
	}
	if cfg.SpillDir != "" && d.hotMax > 0 {
		// A configured spill directory opens eagerly: recovery may need it to
		// resolve SpillRef records from a checkpointed journal, and its
		// surviving entries are swept against the recovered live set.
		sp, err := journal.OpenSpill(cfg.SpillDir, 0)
		if err != nil {
			d.recoveryErr = fmt.Errorf("dispatch: opening spill store: %w", err)
		} else {
			d.spill.Store(sp)
			d.spillDurable = true
		}
	}
	if cfg.Obs != nil {
		d.registerObs(cfg.Obs)
	}
	if d.jnl != nil {
		d.recoverJournal()
	} else if sp := d.spill.Load(); sp != nil {
		// No journal: nothing on disk is live. Drop leftovers from a
		// previous run so stale specs cannot accumulate.
		sp.RetainOnly(nil)
	}
	return d
}

// Shards reports the number of scheduling shards.
func (d *Dispatcher) Shards() int { return len(d.shards) }

// Start binds the listener and begins serving workers. It returns the bound
// address.
func (d *Dispatcher) Start() (string, error) {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return "", err
	}
	d.ln = ln
	d.epoch = time.Now()
	if d.cfg.OnEvent != nil {
		d.evReady = make(chan struct{}, 1)
		d.eventsQuit = make(chan struct{})
		d.evWG.Add(1)
		go d.drainEvents()
	}
	d.wg.Add(2)
	go d.acceptLoop()
	go d.janitor()
	return ln.Addr().String(), nil
}

// Addr returns the listen address (valid after Start).
func (d *Dispatcher) Addr() string { return d.ln.Addr().String() }

// Epoch returns the dispatcher start time; job records are relative to it.
func (d *Dispatcher) Epoch() time.Time { return d.epoch }

func (d *Dispatcher) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveWorker(proto.NewCodec(conn), false)
		}()
	}
}

// ServeConn attaches a pre-established in-process connection (one end of a
// proto.Pipe) as a worker transport, used by the in-process runtime. Such a
// link is never checked for silence.
func (d *Dispatcher) ServeConn(codec *proto.Codec) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.serveWorker(codec, true)
	}()
}

// register admits the worker into the registry, evicting a stale TCP
// predecessor holding the same ID (a worker reconnecting after a network
// blip must not wait out the full heartbeat timeout behind its dead previous
// connection), and tells it its heartbeat period. It reports whether the
// worker was admitted.
func (d *Dispatcher) register(wc *workerConn) bool {
	staleAfter := int64(d.cfg.HeartbeatTimeout / 2)
	d.mu.Lock()
	for {
		if d.closed.Load() {
			d.mu.Unlock()
			return false
		}
		old, dup := d.workers[wc.id]
		if !dup {
			break
		}
		if old.local || time.Now().UnixNano()-old.lastSeen.Load() < staleAfter {
			// The existing connection is live: genuine duplicate ID.
			d.mu.Unlock()
			wc.codec.Send(&proto.Envelope{Kind: proto.KindError, Error: "duplicate worker id " + wc.id})
			return false
		}
		// The existing connection went silent (network blip, half-open
		// socket): evict it and admit the newcomer.
		d.mu.Unlock()
		old.codec.Close()
		d.workerGone(old)
		d.mu.Lock()
	}
	wc.shard = d.shardFor(wc)
	d.workers[wc.id] = wc
	d.workersPeak = max(d.workersPeak, len(d.workers))
	d.stats.workersJoined.Add(1)
	d.emit(Event{Kind: EvWorkerJoined, WorkerID: wc.id, Detail: wc.reg.Host})
	// Queued in the section that publishes the worker, so a stage fan-out
	// (which snapshots d.workers under d.mu) either reaches it through this
	// replay or queues behind it: registered is always the first frame, and
	// every stage arrives exactly once. The replay points into d.staged,
	// whose entries are never rewritten once appended.
	reg := &proto.Registered{HeartbeatEvery: d.cfg.HeartbeatTimeout / 10}
	if wc.local {
		reg.HeartbeatEvery = 0
	}
	wc.out.Push(&proto.Envelope{Kind: proto.KindRegistered, Registered: reg})
	for i := range d.staged {
		wc.out.Push(&proto.Envelope{Kind: proto.KindStage, Stage: &d.staged[i]})
	}
	d.mu.Unlock()
	return true
}

func (d *Dispatcher) serveWorker(codec *proto.Codec, local bool) {
	defer codec.Close()
	first, err := codec.Recv()
	if err != nil {
		return
	}
	if first.Kind == proto.KindPeerAttach && first.PeerAttach != nil {
		// A router attaching as a federation peer, not a worker registering.
		// Same listener, same wire protocol — the first frame's kind is the
		// only discriminator, so existing workers and clients need no changes.
		d.servePeer(codec, first)
		return
	}
	if first.Kind != proto.KindRegister || first.Register == nil {
		codec.Send(&proto.Envelope{Kind: proto.KindError, Error: "expected register"})
		return
	}
	wc := &workerConn{
		id:    first.Register.WorkerID,
		reg:   *first.Register,
		codec: codec,
		local: local,
		// A worker whose link falls 1,024 frames behind is treated as
		// faulty when a task does not fit.
		out:   proto.NewOutbox(codec, 1024),
		tasks: make(map[string]taskRef),
	}
	wc.touch()

	if !d.register(wc) {
		return
	}
	// A registered worker holds no task: it is idle until the dispatcher
	// gives it one. Its first task queues behind registered and the
	// replayed stages.
	d.park(wc)

	// Inbound hot loop: results take Dispatcher.mu and then park the worker
	// under its shard lock; heartbeat and output frames take no lock. A
	// frame whose body does not decode ends the link: the stream cannot be
	// trusted after it, and an undecodable result could not be credited to
	// its task, which would stay pending forever on a worker that looks
	// idle. workerGone below retries or fails every task bound to it.
	for {
		env, err := codec.Recv()
		if err != nil {
			break
		}
		wc.touch()
		switch env.Kind {
		case proto.KindResult:
			d.handleResult(wc, env.Result)
		case proto.KindOutput:
			d.handleOutput(env.Output)
		case proto.KindHeartbeat:
			// Liveness only; touch above already recorded it lock-free.
		case proto.KindStaged, proto.KindError:
			// acks and diagnostics; nothing to do
		default:
		}
	}
	d.workerGone(wc)
	// The deferred close also unblocks a drain goroutine stuck writing to a
	// peer that has stopped reading: once the pipe's buffer or the socket's
	// window is full, nothing else does.
}

// park puts a worker that holds no task into its home shard's idle set and
// schedules. The dispatcher owns the worker's credit: it parks a worker when
// it registers and when the result of a task bound to it arrives, and at no
// other time. A stopping dispatcher answers with shutdown instead.
func (d *Dispatcher) park(wc *workerConn) {
	if d.stopping.Load() || d.closed.Load() {
		wc.out.Push(&proto.Envelope{Kind: proto.KindShutdown})
		return
	}
	s := wc.shard
	s.mu.Lock()
	if wc.gone.Load() {
		s.mu.Unlock()
		return
	}
	s.addIdle(wc)
	s.mu.Unlock()
	d.schedule()
}

// registerRunning moves the popped job to the running state and makes its
// runningJob, whose ranks the caller binds to the group it selects. Called
// with the popping shard's lock held (lock order shard -> mu).
func (d *Dispatcher) registerRunning(job *Job) *runningJob {
	rj := &runningJob{job: job, start: time.Now()}
	if n := job.Procs(); n == 1 {
		rj.ranks = rj.rank1[:]
	} else {
		rj.ranks = make([]rank, n)
	}
	d.ins.queueWait.Observe(rj.start.Sub(job.submitted))
	d.mu.Lock()
	d.setStateLocked(job.live, running)
	job.live.run = rj
	d.mu.Unlock()
	d.journal(journal.Record{Kind: journal.Dispatched, JobID: job.Spec.JobID})
	return rj
}

// dispatchJob builds the popped job's tasks and sends them to the workers
// its ranks are bound to. Runs outside all scheduling locks — mpiexec startup
// is slow — and re-checks each worker's liveness under Dispatcher.mu when
// binding tasks. The tasks go out after the unlock, each written by this
// goroutine when its worker's outbox is idle (proto.Outbox.SendOrPush). The
// credit rule makes that safe: a task only ever goes to a parked worker,
// which is blocked in Recv (DESIGN.md "The outbox").
func (d *Dispatcher) dispatchJob(rj *runningJob) {
	job := rj.job
	var exec *hydra.MPIExec
	if job.Type == MPI {
		spec := job.Spec
		if spec.WallLimit == 0 && d.cfg.JobTimeout > 0 {
			spec.WallLimit = d.cfg.JobTimeout
		}
		var err error
		exec, err = hydra.StartMPIExec(spec)
		if err != nil {
			var retry *Job
			d.mu.Lock()
			// rj.exec is unset, so there is no teardown to collect.
			retry = d.finalizeLocked(rj, fmt.Sprintf("mpiexec start: %v", err), nil)
			d.mu.Unlock()
			d.releaseGroup(rj)
			if retry != nil {
				d.requeue(retry)
			}
			return
		}
		for i := range rj.ranks {
			rj.ranks[i].task = exec.ProxyTask(i)
		}
		// Fires when the last rank connects to the PMI endpoint. Set before
		// any task is enqueued, so it cannot race its own registration; it
		// cannot fire before EvJobStarted below because no rank can dial in
		// until its proxy task reaches a worker.
		jobID := job.Spec.JobID
		exec.OnWired(func() {
			d.emit(Event{Kind: EvPMIWired, JobID: jobID})
		})
	} else {
		wall := job.Spec.WallLimit
		if wall == 0 && d.cfg.JobTimeout > 0 {
			// Sequential jobs get the watchdog too; only the MPI branch
			// defaulted it before, so a hung sequential task wedged its
			// worker forever.
			wall = d.cfg.JobTimeout
		}
		rj.ranks[0].task = proto.Task{
			TaskID:    job.Spec.JobID + "/seq",
			JobID:     job.Spec.JobID,
			Cmd:       job.Spec.Cmd,
			Args:      append([]string(nil), job.Spec.Args...),
			Env:       append([]string(nil), job.Spec.Env...),
			Dir:       job.Spec.Dir,
			WallLimit: wall,
		}
	}

	d.emit(Event{Kind: EvJobStarted, JobID: job.Spec.JobID})
	var retry *Job
	var td execTeardown
	d.mu.Lock()
	rj.exec = exec
	rj.pending = len(rj.ranks)
	if len(rj.ranks) == 1 {
		rj.results, rj.workers = rj.result1[:0], rj.worker1[:]
	} else {
		rj.results = make([]proto.Result, 0, len(rj.ranks))
		rj.workers = make([]string, len(rj.ranks))
	}
	for i := range rj.ranks {
		r := &rj.ranks[i]
		r.pending = true
		wc, taskID := r.wc, r.task.TaskID
		rj.workers[i] = wc.id
		d.stats.tasksDispatched.Add(1)
		d.emit(Event{Kind: EvTaskSent, JobID: job.Spec.JobID, TaskID: taskID, WorkerID: wc.id})
		if wc.gone.Load() {
			// The worker died between group selection and task binding; its
			// workerGone pass cannot see this task, so record the loss here.
			d.failTaskLocked(rj, i, &td)
			continue
		}
		wc.tasks[taskID] = taskRef{rj: rj, rank: i}
		r.env = proto.Envelope{Kind: proto.KindTask, Task: &r.task}
	}
	if rj.pending == 0 {
		retry = d.finalizeLocked(rj, "", &td)
	}
	d.mu.Unlock()
	// Only this goroutine touches the envelopes until it hands them over, so
	// a rank whose envelope is set is one bound above.
	for i := range rj.ranks {
		r := &rj.ranks[i]
		if r.env.Task != nil && !r.wc.out.SendOrPush(&r.env) {
			// The worker is gone or its outbox overflowed: treat it as
			// faulty. workerGone fails the task.
			r.wc.codec.Close()
		}
	}
	td.run()
	d.ins.assembly.Observe(time.Since(rj.start))
	if retry != nil {
		d.requeue(retry)
	}
}

// execTeardown is the mpiexec work a locked section leaves for after the
// unlock. Abort and Close each cost up to N+1 close(2) calls, too long to hold
// Dispatcher.mu over; the caller runs them as soon as it has released it, so
// an abort still unblocks sibling ranks promptly.
type execTeardown struct{ abort, close []*hydra.MPIExec }

func (td *execTeardown) run() {
	for _, x := range td.abort {
		x.Abort()
	}
	for _, x := range td.close {
		x.Close()
	}
}

// failTaskLocked records the loss of one dispatched task, the job's rank i,
// to the death of its worker. Caller holds d.mu, has verified the rank is
// pending, and runs td after unlocking.
func (d *Dispatcher) failTaskLocked(rj *runningJob, i int, td *execTeardown) {
	r := &rj.ranks[i]
	r.pending = false
	rj.pending--
	rj.failed = true
	rj.faulted = true
	if rj.errMsg == "" {
		rj.errMsg = fmt.Sprintf("worker %s lost while running %s", r.wc.id, r.task.TaskID)
	}
	rj.results = append(rj.results, proto.Result{
		TaskID: r.task.TaskID, JobID: rj.job.Spec.JobID, ExitCode: -1,
		Err: "worker lost",
	})
	if rj.exec != nil {
		td.abort = append(td.abort, rj.exec)
	}
}

// releaseGroup returns a job's workers to their shards' idle sets after a
// launch that never bound tasks to them, then reschedules.
func (d *Dispatcher) releaseGroup(rj *runningJob) {
	for i := range rj.ranks {
		wc := rj.ranks[i].wc
		s := wc.shard
		s.mu.Lock()
		if !wc.gone.Load() {
			s.addIdle(wc)
		}
		s.mu.Unlock()
	}
	d.schedule()
}

// requeue returns a job in retry-backoff to the front of a shard queue after
// the attempt's capped exponential backoff — without it a job that reliably
// kills or faults its workers respins through the pool as fast as workers
// rejoin. Never called with d.mu or a shard lock held (finalizeLocked only
// marks the retry).
func (d *Dispatcher) requeue(j *Job) {
	if d.closed.Load() {
		d.strand(j)
		return
	}
	place := func() {
		d.mu.Lock()
		d.setStateLocked(j.live, queuedHot)
		d.mu.Unlock()
		d.placeJob(j, true)
		if d.closed.Load() {
			// Close may have swept the queues before the placement landed.
			d.failQueued()
		}
		d.schedule()
	}
	delay := d.retryDelay(j.retries)
	if delay <= 0 {
		place()
		return
	}
	go func() {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
			place()
		case <-d.quit:
			// Close aborted this backoff: fail the handle instead of
			// stranding its waiters forever.
			d.strand(j)
		}
	}()
}

// retryDelay is the backoff before attempt number `attempt` (1-based: set
// by finalizeLocked before requeue), doubling from RetryBackoff up to
// RetryBackoffMax. Only a negative RetryBackoff disables the delay; zero
// means "use the default", matching core.Options — New normalizes zero
// before this runs, and the check here mirrors that so a zero can never
// silently mean "no backoff" (the old <= 0 test conflated the two).
func (d *Dispatcher) retryDelay(attempt int) time.Duration {
	delay := d.cfg.RetryBackoff
	if delay < 0 {
		return 0
	}
	if delay == 0 {
		delay = 100 * time.Millisecond
	}
	for i := 1; i < attempt && delay < d.cfg.RetryBackoffMax; i++ {
		delay *= 2
	}
	if delay > d.cfg.RetryBackoffMax {
		delay = d.cfg.RetryBackoffMax
	}
	return delay
}

// handleResult processes a rank's completion report. A result for a task
// bound to this connection frees the worker, which is parked for its next
// task once Dispatcher.mu is released (lock order shard -> mu).
func (d *Dispatcher) handleResult(wc *workerConn, res *proto.Result) {
	var retry *Job
	var td execTeardown
	d.mu.Lock()
	ref, ok := wc.tasks[res.TaskID]
	if !ok || ref.rj.job.Spec.JobID != res.JobID {
		// A frame from a connection that was never assigned the task, or a
		// duplicate report. Credit nothing: the worker may still be busy.
		d.mu.Unlock()
		return
	}
	delete(wc.tasks, res.TaskID)
	rj := ref.rj
	if rj.job.live.run != rj || !rj.ranks[ref.rank].pending {
		// A late result from a prior faulted attempt's surviving worker: the
		// attempt is over, and a retry of it (with the same job and task IDs)
		// is owned by someone else. Credit nothing to the job; the worker
		// itself is free again.
		d.mu.Unlock()
		d.park(wc)
		return
	}
	rj.ranks[ref.rank].pending = false
	rj.pending--
	rj.results = append(rj.results, *res)
	d.emit(Event{Kind: EvTaskDone, JobID: res.JobID, TaskID: res.TaskID, WorkerID: wc.id})
	if res.ExitCode != 0 {
		rj.failed = true
		if rj.errMsg == "" {
			rj.errMsg = fmt.Sprintf("task %s exited %d: %s", res.TaskID, res.ExitCode, res.Err)
		}
		// Unblock sibling ranks that may be stuck in MPI operations.
		if rj.exec != nil && rj.pending > 0 {
			td.abort = append(td.abort, rj.exec)
		}
	}
	if rj.pending == 0 {
		retry = d.finalizeLocked(rj, "", &td)
	}
	d.mu.Unlock()
	td.run()
	d.park(wc)
	if retry != nil {
		d.requeue(retry)
	}
}

// handleOutput routes one output chunk from a worker to the OnOutput
// callback and to the router attached to its job, if any.
func (d *Dispatcher) handleOutput(o *proto.Output) {
	if d.cfg.OnOutput != nil {
		d.cfg.OnOutput(o.TaskID, o.Stream, o.Data)
	}
	if d.peerOutN.Load() > 0 {
		d.relayPeerOutput(o)
	}
}

// workerGone removes a dead worker and fails its in-flight tasks (paper
// §6.1.5: JETS automatically disregards workers that fail or hang).
// Idempotent; safe to call from both the reader loop and the eviction path.
func (d *Dispatcher) workerGone(wc *workerConn) {
	if !wc.gone.CompareAndSwap(false, true) {
		return
	}
	wc.out.Close()
	s := wc.shard
	if s != nil {
		s.mu.Lock()
		s.removeIdle(wc)
		s.mu.Unlock()
	}
	var retries []*Job
	var td execTeardown
	d.mu.Lock()
	// The registry may already hold the worker's replacement (eviction on
	// reconnect); only remove the entry if it is still this connection.
	if d.workers[wc.id] == wc {
		delete(d.workers, wc.id)
	}
	d.stats.workersLost.Add(1)
	d.emit(Event{Kind: EvWorkerLost, WorkerID: wc.id})
	for taskID, ref := range wc.tasks {
		delete(wc.tasks, taskID)
		rj := ref.rj
		if rj.job.live.run != rj || !rj.ranks[ref.rank].pending {
			continue
		}
		d.failTaskLocked(rj, ref.rank, &td)
		if rj.pending == 0 {
			if r := d.finalizeLocked(rj, "", &td); r != nil {
				retries = append(retries, r)
			}
		}
	}
	d.mu.Unlock()
	td.run()
	for _, j := range retries {
		d.requeue(j)
	}
}

// finalizeLocked ends a seated attempt: the job resolves, or moves to
// retry-backoff and is returned for the caller to requeue after releasing
// d.mu (pushing to a shard queue under the dispatcher lock would invert the
// lock order). The job's mpiexec is left in td for the caller to close after
// the unlock, for the same reason. Caller holds d.mu.
func (d *Dispatcher) finalizeLocked(rj *runningJob, overrideErr string, td *execTeardown) *Job {
	d.ins.jobDur.Observe(time.Since(rj.start))
	if rj.exec != nil {
		td.close = append(td.close, rj.exec)
	}
	if overrideErr != "" {
		rj.failed = true
		rj.errMsg = overrideErr
	}
	lj := rj.job.live
	if rj.failed && rj.faulted && rj.job.retries < d.cfg.MaxJobRetries {
		rj.job.retries++
		d.setStateLocked(lj, retryBackoff)
		lj.run = nil
		d.stats.jobsRetried.Add(1)
		d.journal(journal.Record{Kind: journal.Retried, JobID: rj.job.Spec.JobID, Attempt: rj.job.retries})
		d.emit(Event{Kind: EvJobRetried, JobID: rj.job.Spec.JobID, Detail: rj.errMsg})
		return rj.job
	}
	d.resolveLocked(lj, exit{res: JobResult{
		Failed:      rj.failed,
		Err:         rj.errMsg,
		Start:       rj.start.Sub(d.epoch),
		Stop:        time.Since(d.epoch),
		TaskResults: rj.results,
		Workers:     rj.workers,
	}})
	return nil
}

// janitor expires TCP workers whose heartbeats stopped.
func (d *Dispatcher) janitor() {
	defer d.wg.Done()
	interval := d.cfg.HeartbeatTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-d.quit:
			return
		}
		if d.closed.Load() {
			return
		}
		d.maybeCheckpoint()
		cutoff := time.Now().Add(-d.cfg.HeartbeatTimeout).UnixNano()
		var expired []*workerConn
		d.mu.Lock()
		for _, wc := range d.workers {
			if !wc.local && wc.lastSeen.Load() < cutoff {
				expired = append(expired, wc)
			}
		}
		d.mu.Unlock()
		for _, wc := range expired {
			// Closing the connection pops the reader loop, which runs the
			// full workerGone path.
			wc.codec.Close()
		}
	}
}

// kickLocked wakes Drain waiters, if any. Caller holds d.mu.
func (d *Dispatcher) kickLocked() {
	if d.idleWait != nil {
		close(d.idleWait)
		d.idleWait = nil
	}
}

// Submit enqueues a job and returns its handle. With a journal configured,
// acceptance is not yet durability: the Submitted record group-commits on
// the journal's fsync cadence (see Config.Journal for the window and how to
// close it).
func (d *Dispatcher) Submit(job Job) (*Handle, error) {
	j := &job
	if err := d.admit([]*Job{j}, placeBack); err != nil {
		return nil, err
	}
	return &j.live.Handle, nil
}

// SubmitBatch enqueues a group of jobs under one submission-lock acquisition
// and a single scheduling pass — the submit-side analogue of the wire
// protocol's write coalescing. The batch is accepted or rejected as a whole.
// Acceptance inherits Submit's journal durability window (see
// Config.Journal).
func (d *Dispatcher) SubmitBatch(jobs []Job) ([]*Handle, error) {
	js := make([]*Job, len(jobs))
	for i := range jobs {
		job := jobs[i] // own copy: the queue must not alias the caller's slice
		js[i] = &job
	}
	if err := d.admit(js, placeBack); err != nil {
		return nil, err
	}
	handles := make([]*Handle, len(js))
	for i, j := range js {
		handles[i] = &j.live.Handle
	}
	return handles, nil
}

// Drain blocks until no job is live — queued, running, or backing off — or
// ctx ends.
func (d *Dispatcher) Drain(ctx context.Context) error {
	for {
		d.mu.Lock()
		if len(d.jobs) == 0 {
			d.mu.Unlock()
			return nil
		}
		if d.idleWait == nil {
			d.idleWait = make(chan struct{})
		}
		wait := d.idleWait
		d.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Shutdown stops accepting submissions, drains queued and running jobs
// (bounded by ctx), tells all workers to exit, and closes the listener.
// Draining is flagged before the drain wait begins, so a concurrent Submit
// cannot slip a job in that would run against workers already being told to
// exit.
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	d.subMu.Lock()
	d.draining.Store(true)
	d.subMu.Unlock()
	err := d.Drain(ctx)
	d.stopping.Store(true)
	d.mu.Lock()
	workers := make([]*workerConn, 0, len(d.workers))
	for _, wc := range d.workers {
		workers = append(workers, wc)
	}
	d.mu.Unlock()
	for _, wc := range workers {
		wc.out.Push(&proto.Envelope{Kind: proto.KindShutdown})
	}
	d.Close()
	return err
}

// Close releases the listener immediately. Every handle still live
// resolves: jobs stranded in a shard queue or a retry-backoff timer fail
// with ErrDispatcherClosed, and running jobs complete with failures as
// connections drop. A configured journal is flushed and closed last, so
// the stranded jobs — journaled without a Completed record — recover on
// the next start.
func (d *Dispatcher) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.quit) // abort retry-backoff timers (each resolves its handle) and stop the janitor
	d.failQueued()
	if d.eventsQuit != nil {
		// Signal the drainer and wait for it to flush the pending tail, so
		// an observer (e.g. a trace file written after Close) sees every
		// event emitted before shutdown. The drainer only delivers what is
		// pending and returns, so this wait is bounded by the observer.
		close(d.eventsQuit)
		d.evWG.Wait()
	}
	var err error
	if d.ln != nil {
		err = d.ln.Close()
	}
	if d.jnl != nil {
		if jerr := d.jnl.Close(); err == nil {
			err = jerr
		}
	}
	d.spillMu.Lock()
	sp, tmp := d.spill.Load(), d.spillTmpDir
	d.spillMu.Unlock()
	if sp != nil {
		if serr := sp.Close(); err == nil {
			err = serr
		}
	}
	if tmp != "" {
		os.RemoveAll(tmp) // ephemeral spill: nothing durable referenced it
	}
	return err
}

// failQueued drains every shard queue and fails the stranded handles with
// ErrDispatcherClosed. Called by Close once the closed flag is up, and by any
// placer that observes the flag after pushing (the placement may have raced
// past Close's sweep) — between the two, no queued job can outlive Close
// unresolved.
func (d *Dispatcher) failQueued() {
	var caught []*liveJob
	d.lockAll()
	for _, s := range d.shards {
		for j := s.queue.Next(math.MaxInt); j != nil; j = s.queue.Next(math.MaxInt) {
			caught = append(caught, j.live)
		}
		// The cold tail strands too; entries mid-refill stay with the refill
		// goroutine, whose own post-push closed check re-runs this sweep.
		caught = append(caught, s.cold...)
		s.cold = nil
		s.refreshHead()
	}
	d.unlockAll()
	d.mu.Lock()
	for _, lj := range caught {
		d.resolveLocked(lj, stranded)
	}
	d.mu.Unlock()
}

// StageFile distributes a file to every current and future worker's local
// cache (the paper's local-storage optimization: proxy binaries, user
// executables, and reused data files).
func (d *Dispatcher) StageFile(name string, data []byte) {
	s := proto.Stage{Name: name, Data: data}
	d.mu.Lock()
	d.staged = append(d.staged, s)
	workers := make([]*workerConn, 0, len(d.workers))
	for _, wc := range d.workers {
		workers = append(workers, wc)
	}
	d.mu.Unlock()
	for _, wc := range workers {
		wc.out.Push(&proto.Envelope{Kind: proto.KindStage, Stage: &s})
	}
}

// Stats returns a snapshot of the cumulative counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		JobsSubmitted:   int(d.stats.jobsSubmitted.Load()),
		JobsCompleted:   int(d.stats.jobsCompleted.Load()),
		JobsFailed:      int(d.stats.jobsFailed.Load()),
		JobsRetried:     int(d.stats.jobsRetried.Load()),
		TasksDispatched: int(d.stats.tasksDispatched.Load()),
		WorkersJoined:   int(d.stats.workersJoined.Load()),
		WorkersLost:     int(d.stats.workersLost.Load()),
		Steals:          int(d.stats.steals.Load()),
		JournalErrors:   int(d.stats.journalErrors.Load()),
		JobsSpilled:     int(d.stats.jobsSpilled.Load()),
		SpillReads:      int(d.stats.spillReads.Load()),
	}
}

// Workers reports the number of live registered workers.
func (d *Dispatcher) Workers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers)
}

// PeakWorkers reports the most workers that have been registered at once: the
// size of the allocation as the dispatcher saw it, even when the workers
// attached after submission or have since left.
func (d *Dispatcher) PeakWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workersPeak
}

// IdleWorkers reports workers currently parked waiting for tasks.
func (d *Dispatcher) IdleWorkers() int { return d.idleCount() }

// QueuedJobs reports jobs waiting for workers.
func (d *Dispatcher) QueuedJobs() int { return d.queuedCount() }

// RunningJobs reports jobs currently executing.
func (d *Dispatcher) RunningJobs() int { return d.stateCount(running) }

// recordSample is how many completed-job records a dispatcher keeps.
const recordSample = 4096

// recordLocked accounts one completed job. Caller holds d.mu.
func (d *Dispatcher) recordLocked(rec metrics.JobRecord) {
	d.tally.Add(rec)
	if len(d.recent) < recordSample {
		d.recent = append(d.recent, rec)
		return
	}
	d.recent[d.recentNext] = rec
	d.recentNext = (d.recentNext + 1) % recordSample
}

// Records returns the records (offsets from Epoch) of the most recently
// completed jobs, oldest first: a bounded sample — at most recordSample — for
// load-level figures and spot checks, not a log of the run. Tally has the
// totals over every completed job.
func (d *Dispatcher) Records() []metrics.JobRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]metrics.JobRecord, 0, len(d.recent))
	return append(append(out, d.recent[d.recentNext:]...), d.recent[:d.recentNext]...)
}

// Tally returns the running sums over every job completed so far, the raw
// material for the utilization formula (Eq. 1) and the batch summary.
func (d *Dispatcher) Tally() metrics.Tally {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tally
}
