// Package worker implements the JETS pilot-job worker agent: the persistent
// process started on each compute node by the allocation scripts. A worker
// connects to the central dispatcher, registers, and then cycles through the
// paper's Fig. 4 protocol: receive a task (a sequential command or one Hydra
// proxy of a decomposed MPI job), execute it, stream its output, and report
// the result.
//
// The result is the request for more work. The paper's §4 pull model keeps
// its meaning: a worker is idle exactly when it holds no task, so the
// dispatcher parks it for the next task when it registers and whenever its
// task's result arrives, and no separate frame asks for work.
//
// The worker has no liveness settings: the dispatcher's registered frame
// says how often to send a heartbeat, and over an in-process link, which
// cannot go silent, it says never.
//
// The worker is deliberately decomposable (architecture principle 3): it
// can run against any proto-speaking service and is used on its own as a
// benchmarking component.
package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/proto"
)

// Package-level instrumentation over every worker agent in the process (the
// in-process runtime hosts many). The counters work detached; RegisterMetrics
// exports them through a registry.
var (
	tasksExecutedTotal = obs.NewCounter("jets_worker_tasks_executed_total",
		"tasks executed by workers in this process")
	heartbeatsTotal = obs.NewCounter("jets_worker_heartbeats_total",
		"heartbeat frames sent by workers in this process")
)

// RegisterMetrics exports this package's worker instrumentation.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(tasksExecutedTotal, heartbeatsTotal)
}

// errKilled ends the cycle of a worker that Kill severed.
var errKilled = errors.New("worker killed")

// Config parameterizes a worker agent.
type Config struct {
	ID    string
	Host  string
	Cores int
	Coord []int // interconnect coordinates for topology-aware grouping

	// DispatcherAddr is the TCP endpoint of the JETS service. One of
	// DispatcherAddr or Conn must be set.
	DispatcherAddr string
	// Conn, when non-nil, is a pre-established connection: the in-process
	// runtime hands each local worker one end of a proto.Pipe.
	Conn *proto.Codec

	// Runner executes user processes; defaults to hydra.ExecRunner.
	Runner hydra.Runner

	// CacheDir is node-local storage for staged files (the paper's local
	// storage optimization). Empty disables staging.
	CacheDir string

	// DialTimeout bounds the initial connection; default 10s.
	DialTimeout time.Duration

	// Reconnect makes Run redial and re-register after a lost connection
	// instead of returning, so a pool of pilot jobs survives a dispatcher
	// restart (crash recovery): the restarted service sees the same worker
	// IDs rejoin and hands them the recovered workload. A dispatcher-ordered
	// shutdown or a context cancellation still ends Run. Ignored when Conn
	// is set — a pre-established connection cannot be redialed.
	Reconnect bool
	// ReconnectBackoff is the initial redial delay; default 250ms, doubling
	// per consecutive failure up to ReconnectBackoffMax and resetting once a
	// registration succeeds.
	ReconnectBackoff time.Duration
	// ReconnectBackoffMax caps the redial backoff; default 5s.
	ReconnectBackoffMax time.Duration
}

// Worker is one pilot-job agent.
type Worker struct {
	cfg Config

	busy       atomic.Bool
	connected  atomic.Bool  // registered with the dispatcher and serving
	registered atomic.Bool  // this attempt reached registration (resets redial backoff)
	tasks      atomic.Int64 // tasks completed

	killed context.Context // done once Kill is called
	kill   context.CancelFunc
}

// New creates a worker agent from cfg, applying defaults.
func New(cfg Config) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("worker: empty ID")
	}
	if cfg.DispatcherAddr == "" && cfg.Conn == nil {
		return nil, errors.New("worker: no dispatcher address or connection")
	}
	if cfg.Runner == nil {
		cfg.Runner = hydra.ExecRunner{}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 250 * time.Millisecond
	}
	if cfg.ReconnectBackoffMax <= 0 {
		cfg.ReconnectBackoffMax = 5 * time.Second
	}
	if cfg.ReconnectBackoffMax < cfg.ReconnectBackoff {
		cfg.ReconnectBackoffMax = cfg.ReconnectBackoff
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Host == "" {
		cfg.Host, _ = os.Hostname()
	}
	w := &Worker{cfg: cfg}
	w.killed, w.kill = context.WithCancel(context.Background())
	return w, nil
}

// TasksCompleted reports how many tasks this worker has finished.
func (w *Worker) TasksCompleted() int64 { return w.tasks.Load() }

// Busy reports whether a task is currently executing.
func (w *Worker) Busy() bool { return w.busy.Load() }

// Healthy implements the /healthz contract for the worker binary: nil while
// the worker is registered with its dispatcher and serving the work cycle.
func (w *Worker) Healthy() error {
	if w.connected.Load() {
		return nil
	}
	return errors.New("worker is not connected to a dispatcher")
}

// Kill abruptly severs the worker, simulating a node failure (used by the
// fault-injection experiments, §6.1.5): it ends the running task's context
// and closes the connection. A reconnecting worker stays dead: the redial
// loop observes the kill and exits.
func (w *Worker) Kill() { w.kill() }

// Run connects (if needed), registers, and serves the work cycle until the
// dispatcher shuts the worker down, the context is canceled, or the
// connection fails. A clean shutdown returns nil. With Config.Reconnect set,
// a connection failure redials with capped exponential backoff instead of
// returning, so the worker rejoins a restarted dispatcher.
func (w *Worker) Run(ctx context.Context) error {
	if !w.cfg.Reconnect || w.cfg.Conn != nil {
		return w.runOnce(ctx)
	}
	backoff := w.cfg.ReconnectBackoff
	for {
		w.registered.Store(false)
		err := w.runOnce(ctx)
		if err == nil || ctx.Err() != nil {
			return err // dispatcher-ordered shutdown or canceled context
		}
		select {
		case <-w.killed.Done():
			return err
		default:
		}
		if w.registered.Load() {
			// The backoff resets only here, on an attempt that reached the
			// registered ack — not on dial success. A dispatcher that accepts
			// connections but refuses registration (full restart loop, wrong
			// endpoint behind a load balancer) must keep the backoff growing,
			// or a large worker pool hammers it at the initial rate forever.
			backoff = w.cfg.ReconnectBackoff
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-w.killed.Done():
			t.Stop()
			return errKilled
		}
		t.Stop()
		backoff *= 2
		if backoff > w.cfg.ReconnectBackoffMax {
			backoff = w.cfg.ReconnectBackoffMax
		}
	}
}

// runOnce is one connect-register-serve cycle.
func (w *Worker) runOnce(ctx context.Context) error {
	codec := w.cfg.Conn
	if codec == nil {
		var err error
		codec, err = proto.Dial(w.cfg.DispatcherAddr, w.cfg.DialTimeout)
		if err != nil {
			return fmt.Errorf("worker %s: dial %s: %w", w.cfg.ID, w.cfg.DispatcherAddr, err)
		}
	}
	defer codec.Close()

	// connCtx is the context of this connection, of every task it runs and
	// of its heartbeats: it ends with ctx, on Kill, and when the cycle
	// returns. Its end closes the codec, which unblocks a pending Recv;
	// otherwise a canceled worker would sit parked in the dispatcher
	// forever. The AfterFunc registrations hold no goroutine while they
	// wait. A reconnect gets a new connCtx.
	connCtx, cancelConn := context.WithCancel(ctx)
	defer cancelConn()
	defer context.AfterFunc(w.killed, cancelConn)()
	defer context.AfterFunc(connCtx, func() { codec.Close() })()

	if err := codec.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{
		WorkerID: w.cfg.ID, Host: w.cfg.Host, Cores: w.cfg.Cores, Coord: w.cfg.Coord,
	}}); err != nil {
		return fmt.Errorf("worker %s: register: %w", w.cfg.ID, err)
	}
	ack, err := codec.Recv()
	if err != nil {
		return fmt.Errorf("worker %s: registration ack: %w", w.cfg.ID, err)
	}
	if ack.Kind != proto.KindRegistered {
		return fmt.Errorf("worker %s: unexpected registration reply %q: %s", w.cfg.ID, ack.Kind, ack.Error)
	}
	w.connected.Store(true)
	w.registered.Store(true)
	defer w.connected.Store(false)

	if every := ack.Registered.HeartbeatEvery; every > 0 {
		go heartbeatLoop(connCtx, codec, every)
	}

	out := &outputForwarder{codec: codec, stream: "stdout"}

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.killed.Done():
			return errKilled
		default:
		}
		// Registration and every result leave the worker parked in the
		// dispatcher until a task exists, so this Recv is the idle state of
		// the pilot job.
		env, err := codec.Recv()
		if err != nil {
			return w.runErr(err)
		}
		switch env.Kind {
		case proto.KindTask:
			if env.Task == nil {
				return fmt.Errorf("worker %s: task frame without payload", w.cfg.ID)
			}
			if err := w.execute(connCtx, out, env.Task); err != nil {
				return w.runErr(err)
			}
		case proto.KindStage:
			// Side traffic: the ack is all the dispatcher expects back.
			if err := w.stage(env.Stage); err != nil {
				codec.Send(&proto.Envelope{Kind: proto.KindError, Error: err.Error()})
			} else {
				codec.Send(&proto.Envelope{Kind: proto.KindStaged, Stage: &proto.Stage{Name: env.Stage.Name}})
			}
		case proto.KindShutdown:
			return nil
		default:
			return fmt.Errorf("worker %s: unexpected message %q", w.cfg.ID, env.Kind)
		}
	}
}

func (w *Worker) runErr(err error) error {
	select {
	case <-w.killed.Done():
		return errKilled
	default:
		return fmt.Errorf("worker %s: connection: %w", w.cfg.ID, err)
	}
}

// heartbeatLoop proves the worker alive on codec, its connection, every
// period the dispatcher set, until ctx (the connection's context) ends.
func heartbeatLoop(ctx context.Context, codec *proto.Codec, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	hb := &proto.Envelope{Kind: proto.KindHeartbeat}
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if codec.Send(hb) != nil {
				return
			}
			heartbeatsTotal.Inc()
		}
	}
}

// outputForwarder streams task output back through the service in chunks,
// implementing the paper's application -> proxy -> mpiexec -> JETS routing.
// One serves every task of a connection: execute attaches it to the task it
// runs and detaches it when the task returns, so a write that outlives its
// task is dropped rather than sent under the next task's ID.
type outputForwarder struct {
	codec  *proto.Codec
	stream string

	mu     sync.Mutex // held across a chunk's Send, so detaching waits it out
	taskID string     // the running task; "" between tasks
}

func (f *outputForwarder) attach(taskID string) {
	f.mu.Lock()
	f.taskID = taskID
	f.mu.Unlock()
}

func (f *outputForwarder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.taskID == "" {
		return len(p), nil
	}
	// No defensive copy: Send encodes the envelope into the codec's write
	// buffer synchronously under its lock and never retains p, so aliasing
	// the caller's buffer for the duration of the call is safe. Losing output
	// must not kill the user process, so a send error drops the chunk.
	f.codec.Send(&proto.Envelope{Kind: proto.KindOutput, Output: &proto.Output{
		TaskID: f.taskID, Stream: f.stream, Data: p,
	}})
	return len(p), nil
}

var _ io.Writer = (*outputForwarder)(nil)

// execute runs one task under ctx, the connection's task context, and sends
// its result on out's connection. The result is also the worker's request
// for its next task, so a failed send ends the cycle.
func (w *Worker) execute(ctx context.Context, out *outputForwarder, task *proto.Task) error {
	w.busy.Store(true)
	defer w.busy.Store(false)

	// Expose the local cache to user processes, as the start scripts expose
	// node-local storage paths in the paper.
	if w.cfg.CacheDir != "" {
		task.Env = append(task.Env, "JETS_CACHE="+w.cfg.CacheDir)
	}

	out.attach(task.TaskID)
	res := hydra.RunProxy(ctx, task, w.cfg.Runner, out)
	out.attach("")

	w.tasks.Add(1)
	tasksExecutedTotal.Inc()
	if w.killed.Err() != nil {
		// A killed node reports nothing, though Kill closes the connection
		// on another goroutine and it may still be open.
		return errKilled
	}
	return out.codec.Send(&proto.Envelope{Kind: proto.KindResult, Result: &res})
}

func (w *Worker) stage(s *proto.Stage) error {
	if s == nil {
		return errors.New("worker: stage frame without payload")
	}
	if w.cfg.CacheDir == "" {
		return fmt.Errorf("worker %s: staging disabled (no cache dir)", w.cfg.ID)
	}
	name := s.Path
	if name == "" {
		name = s.Name
	}
	dst := filepath.Join(w.cfg.CacheDir, filepath.Clean("/"+name))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, s.Data, 0o755)
}
