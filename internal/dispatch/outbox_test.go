package dispatch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

// Tests of a worker's outbox (proto.Outbox): the order of the frames a worker
// sees, and that no write to one worker waits on another. The workers are
// fakes over proto.Pipe, so every frame the dispatcher sends is visible.

// fakeWorker is a registered fake worker that the test reads frames from.
type fakeWorker struct {
	id    string
	codec *proto.Codec
}

// connectFake attaches a fake worker to d and sends its register frame. It
// does not read the reply.
func connectFake(t *testing.T, d *Dispatcher, id string) *fakeWorker {
	t.Helper()
	fake, served := proto.Pipe()
	t.Cleanup(func() { fake.Close() })
	d.ServeConn(served)
	if err := fake.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: id, Cores: 1}}); err != nil {
		t.Fatal(err)
	}
	return &fakeWorker{id: id, codec: fake}
}

// recvWithin reads the next frame, failing the test after timeout.
func (f *fakeWorker) recvWithin(t *testing.T, timeout time.Duration) *proto.Envelope {
	t.Helper()
	type recv struct {
		env *proto.Envelope
		err error
	}
	got := make(chan recv, 1)
	go func() {
		env, err := f.codec.Recv()
		got <- recv{env, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("%s: recv: %v", f.id, r.err)
		}
		return r.env
	case <-time.After(timeout):
		t.Fatalf("%s: no frame within %v", f.id, timeout)
		return nil
	}
}

// TestRegisterFirstFrameAndStagesOnce races a stage against each of 300
// registrations, on four dispatchers in turn. Whichever side wins d.mu, a
// worker's first frame is registered and it receives every stage exactly
// once: by replay when the stage was recorded before the worker was
// published, by fan-out after. A replay queued after registration released
// d.mu would let a stage fanned out in between go first (the worker fails
// its registration on it) and arrive a second time by replay.
func TestRegisterFirstFrameAndStagesOnce(t *testing.T) {
	for round := 0; round < 4; round++ {
		raceStagesAgainstRegistrations(t, 300)
	}
}

func raceStagesAgainstRegistrations(t *testing.T, workers int) {
	d := New(Config{HeartbeatTimeout: time.Minute})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	type seen struct {
		first  proto.Kind
		counts map[string]int
		err    error
	}
	results := make([]seen, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		f := connectFake(t, d, fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func(r *seen) {
			defer wg.Done()
			defer f.codec.Close()
			r.counts = map[string]int{}
			for {
				env, err := f.codec.Recv()
				if err != nil {
					r.err = err
					return
				}
				if r.first == "" {
					r.first = env.Kind
				}
				if env.Kind == proto.KindStage {
					r.counts[env.Stage.Name]++
					if env.Stage.Name == "end" {
						return
					}
				}
			}
		}(&results[i])
		// Races the registration just started on the dispatcher's side.
		d.StageFile(fmt.Sprintf("s%d", i), nil)
	}
	waitFor(t, func() bool { return d.Workers() == workers })
	// Every worker is published, so this stage reaches each one last.
	d.StageFile("end", nil)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a worker never received the final stage")
	}

	bad := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("w%d: %v", i, r.err)
		}
		if r.first != proto.KindRegistered {
			bad++
			if bad <= 3 {
				t.Errorf("w%d: first frame %q, want registered", i, r.first)
			}
			continue
		}
		for n := 0; n < workers; n++ {
			if c := r.counts[fmt.Sprintf("s%d", n)]; c != 1 {
				t.Fatalf("w%d: stage s%d arrived %d times, want once", i, n, c)
			}
		}
		if len(r.counts) != workers+1 {
			t.Fatalf("w%d: %d distinct stages, want %d", i, len(r.counts), workers+1)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d workers got another frame before registered", bad, workers)
	}
}

// TestOutboxOrderRegisteredStagesTask: a worker that registers while a job
// waits sees registered, then the replayed stages in staging order, then the
// task — the task is seated by the registering goroutine's park, and must
// queue behind the frames that are already in the outbox.
func TestOutboxOrderRegisteredStagesTask(t *testing.T) {
	d := New(Config{HeartbeatTimeout: time.Minute})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const stages = 8
	for i := 0; i < stages; i++ {
		d.StageFile(fmt.Sprintf("s%d", i), make([]byte, 1<<10))
	}
	for round := 0; round < 50; round++ {
		jobID := fmt.Sprintf("j%d", round)
		h, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: jobID, NProcs: 1, Cmd: "app"}})
		if err != nil {
			t.Fatal(err)
		}
		f := connectFake(t, d, fmt.Sprintf("w%d", round))
		if env := f.recvWithin(t, 5*time.Second); env.Kind != proto.KindRegistered {
			t.Fatalf("round %d: first frame %q, want registered", round, env.Kind)
		}
		for i := 0; i < stages; i++ {
			env := f.recvWithin(t, 5*time.Second)
			if env.Kind != proto.KindStage || env.Stage.Name != fmt.Sprintf("s%d", i) {
				t.Fatalf("round %d: frame %d is %q %+v, want stage s%d", round, i+1, env.Kind, env.Stage, i)
			}
		}
		env := f.recvWithin(t, 5*time.Second)
		if env.Kind != proto.KindTask || env.Task.JobID != jobID {
			t.Fatalf("round %d: frame after the replay is %q, want the task of %s", round, env.Kind, jobID)
		}
		if err := f.codec.Send(&proto.Envelope{Kind: proto.KindResult, Result: &proto.Result{TaskID: env.Task.TaskID, JobID: jobID}}); err != nil {
			t.Fatal(err)
		}
		if res := h.Wait(); res.Failed {
			t.Fatalf("round %d: %s", round, res.Err)
		}
		// Retire the worker, so the next round's job waits for the next one.
		f.codec.Close()
		waitFor(t, func() bool { return d.Workers() == 0 })
	}
}

// TestOutboxStalledWorkerDoesNotDelaySubmit: a stage bigger than the pipe's
// buffer, fanned out to a busy worker that has stopped reading, blocks only
// that worker's drain goroutine. Neither StageFile nor a Submit that lands
// on another, idle worker waits for it.
func TestOutboxStalledWorkerDoesNotDelaySubmit(t *testing.T) {
	d := New(Config{HeartbeatTimeout: time.Minute})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	busy := connectFake(t, d, "busy")
	if env := busy.recvWithin(t, 5*time.Second); env.Kind != proto.KindRegistered {
		t.Fatalf("busy: first frame %q", env.Kind)
	}
	waitFor(t, func() bool { return d.IdleWorkers() == 1 })
	if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "a", NProcs: 1, Cmd: "app"}}); err != nil {
		t.Fatal(err)
	}
	if env := busy.recvWithin(t, 5*time.Second); env.Kind != proto.KindTask {
		t.Fatalf("busy: frame %q, want its task", env.Kind)
	}
	// busy now runs a and reads nothing more.

	idle := connectFake(t, d, "idle")
	frames := make(chan *proto.Envelope, 4)
	go func() {
		for {
			env, err := idle.codec.Recv()
			if err != nil {
				close(frames)
				return
			}
			frames <- env
		}
	}()
	waitFor(t, func() bool { return d.IdleWorkers() == 1 })

	staged := make(chan struct{})
	go func() {
		d.StageFile("blob", make([]byte, 4*proto.PipeBuffer))
		close(staged)
	}()
	select {
	case <-staged:
	case <-time.After(5 * time.Second):
		t.Fatal("StageFile waited for a worker that stopped reading")
	}
	submitted := make(chan error, 1)
	go func() {
		_, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: "b", NProcs: 1, Cmd: "app"}})
		submitted <- err
	}()
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit waited for a worker that stopped reading")
	}
	want := []proto.Kind{proto.KindRegistered, proto.KindStage, proto.KindTask}
	for i, kind := range want {
		select {
		case env, ok := <-frames:
			if !ok {
				t.Fatal("idle: connection closed")
			}
			if env.Kind != kind {
				t.Fatalf("idle: frame %d is %q, want %q", i, env.Kind, kind)
			}
			if kind == proto.KindTask && env.Task.JobID != "b" {
				t.Fatalf("idle: task of %s, want b", env.Task.JobID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("idle: no %q frame: its link waited for the stalled worker", kind)
		}
	}
}
