package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

// fakeDispatcher is a minimal proto-speaking service for driving a worker
// directly (the worker is designed to be usable as a stand-alone
// benchmarking component against any service).
type fakeDispatcher struct {
	ln    net.Listener
	conns chan *proto.Codec

	heartbeatEvery time.Duration // the period its registered frame sets
}

func newFakeDispatcher(t *testing.T) *fakeDispatcher {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fd := &fakeDispatcher{ln: ln, conns: make(chan *proto.Codec, 4)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fd.conns <- proto.NewCodec(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fd
}

func (fd *fakeDispatcher) addr() string { return fd.ln.Addr().String() }

// accept performs the registration handshake and returns the codec.
func (fd *fakeDispatcher) accept(t *testing.T) (*proto.Codec, *proto.Register) {
	t.Helper()
	select {
	case codec := <-fd.conns:
		env, err := codec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Kind != proto.KindRegister {
			t.Fatalf("first frame %q", env.Kind)
		}
		if err := codec.Send(registered(fd.heartbeatEvery)); err != nil {
			t.Fatal(err)
		}
		return codec, env.Register
	case <-time.After(5 * time.Second):
		t.Fatal("worker never connected")
		return nil, nil
	}
}

// registered is the dispatcher's registration ack with a heartbeat period.
func registered(every time.Duration) *proto.Envelope {
	return &proto.Envelope{Kind: proto.KindRegistered, Registered: &proto.Registered{HeartbeatEvery: every}}
}

// drainUntil reads frames until one matches kind, failing on timeout.
func drainUntil(t *testing.T, codec *proto.Codec, kind proto.Kind) *proto.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no %q frame", kind)
		}
		env, err := codec.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if env.Kind == kind {
			return env
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{ID: "w"}); err == nil {
		t.Error("config without endpoint accepted")
	}
	w, err := New(Config{ID: "w", DispatcherAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults applied.
	if w.cfg.Cores != 1 || w.cfg.Runner == nil {
		t.Fatalf("defaults not applied: %+v", w.cfg)
	}
}

func TestDialFailure(t *testing.T) {
	w, err := New(Config{ID: "w", DispatcherAddr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("run succeeded against closed port")
	}
}

func TestRegistrationFieldsAndWorkCycle(t *testing.T) {
	fd := newFakeDispatcher(t)
	runner := hydra.NewFuncRunner()
	runner.Register("echo", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		fmt.Fprintf(stdout, "ran %s\n", args[0])
		return 0
	})
	w, err := New(Config{
		ID: "node7", Host: "h7", Cores: 4, Coord: []int{1, 2, 3},
		DispatcherAddr: fd.addr(), Runner: runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	codec, reg := fd.accept(t)
	defer codec.Close()
	if reg.WorkerID != "node7" || reg.Host != "h7" || reg.Cores != 4 || len(reg.Coord) != 3 {
		t.Fatalf("register %+v", reg)
	}
	// Registration leaves the worker idle: assign a task at once and expect
	// output, then the result.
	codec.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{
		TaskID: "t1", JobID: "j1", Cmd: "echo", Args: []string{"hello"},
	}})
	sawOutput := false
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no result")
		}
		env, err := codec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Kind == proto.KindOutput && strings.Contains(string(env.Output.Data), "ran hello") {
			sawOutput = true
		}
		if env.Kind == proto.KindResult {
			if env.Result.ExitCode != 0 || env.Result.TaskID != "t1" {
				t.Fatalf("result %+v", env.Result)
			}
			break
		}
	}
	if !sawOutput {
		t.Error("task output not forwarded")
	}
	if w.TasksCompleted() != 1 {
		t.Errorf("completed=%d", w.TasksCompleted())
	}
	// The result was the request for more: a second task runs with nothing
	// sent in between.
	codec.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{
		TaskID: "t2", JobID: "j2", Cmd: "echo", Args: []string{"again"},
	}})
	if res := drainUntil(t, codec, proto.KindResult).Result; res.TaskID != "t2" || res.ExitCode != 0 {
		t.Fatalf("second result %+v", res)
	}
	// Shutdown terminates Run cleanly.
	codec.Send(&proto.Envelope{Kind: proto.KindShutdown})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

// TestHeartbeatsFlow: the worker sends heartbeats at the period its
// registered frame sets, and none when that period is 0.
func TestHeartbeatsFlow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		every time.Duration
	}{{"every-10ms", 10 * time.Millisecond}, {"none", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			fd := newFakeDispatcher(t)
			fd.heartbeatEvery = tc.every
			w, err := New(Config{ID: "hb", DispatcherAddr: fd.addr(), Runner: hydra.NewFuncRunner()})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go w.Run(ctx)
			codec, _ := fd.accept(t)
			defer codec.Close()
			got := make(chan string, 1)
			go func() {
				env, err := codec.Recv()
				if err != nil {
					got <- err.Error()
				} else {
					got <- string(env.Kind)
				}
			}()
			wait := 100 * time.Millisecond
			if tc.every > 0 {
				wait = 5 * time.Second
			}
			select {
			case frame := <-got:
				if tc.every == 0 || frame != string(proto.KindHeartbeat) {
					t.Fatalf("first frame at period %v: %s", tc.every, frame)
				}
			case <-time.After(wait):
				if tc.every > 0 {
					t.Fatalf("no heartbeat within %v at period %v", wait, tc.every)
				}
			}
		})
	}
}

func TestStageWritesCache(t *testing.T) {
	dir := t.TempDir()
	fd := newFakeDispatcher(t)
	w, err := New(Config{ID: "c", DispatcherAddr: fd.addr(),
		Runner: hydra.NewFuncRunner(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	codec, _ := fd.accept(t)
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindStage, Stage: &proto.Stage{
		Name: "lib/app.so", Data: []byte("bits"),
	}})
	ack := drainUntil(t, codec, proto.KindStaged)
	if ack.Stage.Name != "lib/app.so" {
		t.Fatalf("ack %+v", ack.Stage)
	}
	data, err := os.ReadFile(filepath.Join(dir, "lib/app.so"))
	if err != nil || string(data) != "bits" {
		t.Fatalf("cache file: %v %q", err, data)
	}
	// The ack is the whole answer to a stage: after a shutdown, the
	// connection closes with nothing else sent.
	codec.Send(&proto.Envelope{Kind: proto.KindShutdown})
	if env, err := codec.Recv(); err == nil {
		t.Fatalf("a stage was answered with a %q frame besides its ack", env.Kind)
	}
}

func TestStagePathTraversalContained(t *testing.T) {
	dir := t.TempDir()
	fd := newFakeDispatcher(t)
	w, err := New(Config{ID: "c2", DispatcherAddr: fd.addr(),
		Runner: hydra.NewFuncRunner(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	codec, _ := fd.accept(t)
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindStage, Stage: &proto.Stage{
		Name: "../../escape.txt", Data: []byte("x"),
	}})
	drainUntil(t, codec, proto.KindStaged)
	// The file must land inside the cache dir, not beside it.
	if _, err := os.Stat(filepath.Join(dir, "..", "..", "escape.txt")); err == nil {
		t.Fatal("stage escaped the cache directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.txt")); err != nil {
		t.Fatalf("contained file missing: %v", err)
	}
}

func TestStageWithoutCacheDirReportsError(t *testing.T) {
	fd := newFakeDispatcher(t)
	w, err := New(Config{ID: "nc", DispatcherAddr: fd.addr(),
		Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	codec, _ := fd.accept(t)
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindStage, Stage: &proto.Stage{Name: "f", Data: []byte("x")}})
	drainUntil(t, codec, proto.KindError)
}

func TestKillCancelsRunningTask(t *testing.T) {
	fd := newFakeDispatcher(t)
	runner := hydra.NewFuncRunner()
	started := make(chan struct{})
	runner.Register("block", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		close(started)
		<-ctx.Done()
		return 9
	})
	w, err := New(Config{ID: "k", DispatcherAddr: fd.addr(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	codec, _ := fd.accept(t)
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{TaskID: "t", JobID: "j", Cmd: "block"}})
	<-started
	if !w.Busy() {
		t.Error("worker not busy during task")
	}
	w.Kill()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("killed worker returned nil")
		}
		if !errors.Is(err, errors.New("worker killed")) && !strings.Contains(err.Error(), "killed") {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not stop the worker")
	}
}

func TestContextCancelStopsParkedWorker(t *testing.T) {
	fd := newFakeDispatcher(t)
	w, err := New(Config{ID: "p", DispatcherAddr: fd.addr(),
		Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	codec, _ := fd.accept(t)
	defer codec.Close()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unpark the worker")
	}
}

// TestWorkerReconnects: with Config.Reconnect, a severed connection (the
// dispatcher crashed) makes the worker redial and register again, while a
// dispatcher-ordered shutdown still ends Run cleanly.
func TestWorkerReconnects(t *testing.T) {
	fd := newFakeDispatcher(t)
	w, err := New(Config{
		ID: "rc", Cores: 1, DispatcherAddr: fd.addr(), Runner: hydra.NewFuncRunner(),
		Reconnect: true, ReconnectBackoff: 5 * time.Millisecond,
		ReconnectBackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	codec, reg := fd.accept(t)
	if reg.WorkerID != "rc" {
		t.Fatalf("register %+v", reg)
	}
	// Crash: sever the connection without a shutdown frame.
	codec.Close()

	// The worker must redial and re-register under the same ID.
	codec2, reg2 := fd.accept(t)
	if reg2.WorkerID != "rc" {
		t.Fatalf("re-register %+v", reg2)
	}
	if err := codec2.Send(&proto.Envelope{Kind: proto.KindShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after ordered shutdown = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit on shutdown")
	}
}

// TestReconnectBackoffResetsOnRegisteredAck: the redial backoff resets when
// an attempt reaches the registered ack, not when a dial succeeds. The test
// grows the backoff through six refused registrations (the dial succeeds,
// registration is refused), lets the worker register, severs the connection,
// and requires the re-register to arrive far sooner than the grown backoff
// would allow.
func TestReconnectBackoffResetsOnRegisteredAck(t *testing.T) {
	fd := newFakeDispatcher(t)
	w, err := New(Config{
		ID: "bk", Cores: 1,
		DispatcherAddr:   fd.addr(),
		Runner:           hydra.NewFuncRunner(),
		Reconnect:        true,
		ReconnectBackoff: 10 * time.Millisecond, ReconnectBackoffMax: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	next := func(what string) *proto.Codec {
		t.Helper()
		select {
		case codec := <-fd.conns:
			return codec
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: worker stopped dialing", what)
			return nil
		}
	}
	// Six refusals: backoff 10→20→40→80→160→320→640ms.
	for i := 0; i < 6; i++ {
		refuseOn(t, next("refusal"))
	}

	// Now accept: the next attempt registers.
	codec := next("registration")
	if env, err := codec.Recv(); err != nil || env.Kind != proto.KindRegister {
		t.Fatalf("recv %v %v", env, err)
	}
	if err := codec.Send(registered(0)); err != nil {
		t.Fatal(err)
	}

	// Sever. The registered ack above must have reset the backoff to 10ms;
	// without the reset the worker sleeps its grown 640ms before redialing.
	severed := time.Now()
	codec.Close()
	next("redial after sever").Close()
	if gap := time.Since(severed); gap > 400*time.Millisecond {
		t.Fatalf("redial after registered-ack took %v; backoff did not reset", gap)
	}
}

func refuseOn(t *testing.T, codec *proto.Codec) {
	t.Helper()
	if _, err := codec.Recv(); err == nil {
		codec.Send(&proto.Envelope{Kind: proto.KindError, Error: "not accepting registrations"})
	}
	codec.Close()
}

// TestWorkerNoReconnectByDefault: without the opt-in, a severed connection
// still ends Run with an error (the seed behavior).
func TestWorkerNoReconnectByDefault(t *testing.T) {
	fd := newFakeDispatcher(t)
	w, err := New(Config{ID: "once", Cores: 1, DispatcherAddr: fd.addr(), Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	codec, _ := fd.accept(t)
	codec.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after a severed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("non-reconnecting worker kept running")
	}
}

// countingConn counts the writes that reach the connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestResultLeavesFlushed pins the hot loop's write count: a task's result
// is the worker's only frame for the task (no request for more work follows
// it), and it leaves in one write, before the worker acts on whatever the
// dispatcher says next.
func TestResultLeavesFlushed(t *testing.T) {
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	disp := proto.NewCodec(b)
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	w, err := New(Config{ID: "w", Conn: proto.NewCodec(cc), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	if env, err := disp.Recv(); err != nil || env.Kind != proto.KindRegister {
		t.Fatalf("register: %v %v", env, err)
	}
	if err := disp.Send(registered(0)); err != nil {
		t.Fatal(err)
	}
	const tasks = 3
	before := cc.writes.Load()
	for i := 0; i < tasks; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := disp.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{TaskID: id, JobID: id, Cmd: "noop"}}); err != nil {
			t.Fatal(err)
		}
		if env, err := disp.Recv(); err != nil || env.Kind != proto.KindResult || env.Result.TaskID != id {
			t.Fatalf("task %d: want its result, got %v %v", i, env, err)
		}
	}
	if got := cc.writes.Load() - before; got != tasks {
		t.Fatalf("%d writes for %d results, want one each", got, tasks)
	}
	if err := disp.Send(&proto.Envelope{Kind: proto.KindShutdown}); err != nil {
		t.Fatal(err)
	}
	if env, err := disp.Recv(); err == nil {
		t.Fatalf("a %q frame followed the last result", env.Kind)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestReconnectWorkerKilledMidTask: a reconnecting worker killed while a
// task runs cancels the task and ends Run with its "worker killed" error,
// not the cancellation of the context the task ran under.
func TestReconnectWorkerKilledMidTask(t *testing.T) {
	fd := newFakeDispatcher(t)
	runner := hydra.NewFuncRunner()
	started := make(chan struct{})
	runner.Register("block", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		close(started)
		<-ctx.Done()
		return 9
	})
	w, err := New(Config{ID: "rk", DispatcherAddr: fd.addr(), Runner: runner,
		Reconnect: true, ReconnectBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	codec, _ := fd.accept(t)
	defer codec.Close()
	codec.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{TaskID: "t", JobID: "j", Cmd: "block"}})
	<-started
	w.Kill()
	select {
	case err := <-done:
		if err == nil || err.Error() != "worker killed" || errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want the worker-killed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kill did not stop the worker")
	}
}

// TestReconnectedWorkerRunsUnderLiveContext: the context a task runs under
// belongs to the connection, so a worker whose connection dropped runs the
// next connection's tasks under a fresh, live one.
func TestReconnectedWorkerRunsUnderLiveContext(t *testing.T) {
	fd := newFakeDispatcher(t)
	runner := hydra.NewFuncRunner()
	ctxErrs := make(chan error, 2)
	runner.Register("ctx", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		ctxErrs <- ctx.Err()
		return 0
	})
	w, err := New(Config{ID: "rl", DispatcherAddr: fd.addr(), Runner: runner,
		Reconnect: true, ReconnectBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	for i := 0; i < 2; i++ {
		codec, _ := fd.accept(t)
		codec.Send(&proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{TaskID: "t", JobID: "j", Cmd: "ctx"}})
		if res := drainUntil(t, codec, proto.KindResult).Result; res.ExitCode != 0 {
			t.Fatalf("connection %d: result %+v", i, res)
		}
		if err := <-ctxErrs; err != nil {
			t.Fatalf("connection %d: task ran under a dead context: %v", i, err)
		}
		if i == 0 {
			codec.Close() // the dispatcher crashed; the worker redials
			continue
		}
		codec.Send(&proto.Envelope{Kind: proto.KindShutdown})
		codec.Close()
	}
	if err := <-done; err != nil {
		t.Fatalf("Run after ordered shutdown = %v", err)
	}
}
