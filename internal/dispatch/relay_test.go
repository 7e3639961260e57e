package dispatch

import (
	"bytes"
	"context"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
	"jets/internal/worker"
)

// recvStageFrame builds a real stage Frame the way a data-plane endpoint
// would: encoded by a peer, received with RecvFrame.
func recvStageFrame(t *testing.T, s *proto.Stage) *proto.Frame {
	t.Helper()
	a, b := proto.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- a.Send(&proto.Envelope{Kind: proto.KindStage, Stage: s}) }()
	f, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if f.Kind() != proto.KindStage {
		t.Fatalf("kind=%s", f.Kind())
	}
	return f
}

// TestOnOutputFrameRelay checks the raw output hook: it must observe the
// same chunks as the decoded callback, and retained payloads must stay
// intact after the dispatcher releases its own reference (the refcount, not
// the dispatch loop, owns the buffer).
func TestOnOutputFrameRelay(t *testing.T) {
	proto.PoisonFrames(true)
	defer proto.PoisonFrames(false)

	type rawChunk struct {
		data []byte
		f    *proto.Frame
	}
	var mu sync.Mutex
	var raws []rawChunk
	var decoded []string
	tc := startCluster(t, 1, Config{
		OnOutputFrame: func(f *proto.Frame) {
			env, err := f.Envelope()
			if err != nil || env.Output == nil {
				return
			}
			f.Retain() // keep the frame past the borrow, like a relay queue
			mu.Lock()
			raws = append(raws, rawChunk{data: env.Output.Data, f: f})
			mu.Unlock()
		},
		OnOutput: func(taskID, stream string, data []byte) {
			mu.Lock()
			decoded = append(decoded, string(data))
			mu.Unlock()
		},
	})
	payload := bytes.Repeat([]byte{0xA7}, 2048)
	tc.runner.Register("emit", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		stdout.Write(payload)
		return 0
	})
	h, err := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "e", NProcs: 1, Cmd: "emit"}, Type: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(raws)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(raws) == 0 {
		t.Fatal("OnOutputFrame never fired")
	}
	if len(raws) != len(decoded) {
		t.Fatalf("raw hook saw %d chunks, decoded hook %d", len(raws), len(decoded))
	}
	for i, rc := range raws {
		if !bytes.Equal(rc.data, payload) {
			t.Errorf("chunk %d: payload corrupted (poisoned=%v)", i, bytes.Contains(rc.data, []byte{0xDB, 0xDB}))
		}
		rc.f.Release()
	}
}

// TestStageFrameFansOutAndReplays covers Dispatcher.StageFrame: the raw
// frame reaches a connected worker's cache, and the decoded record replays
// to a worker that joins afterwards.
func TestStageFrameFansOutAndReplays(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runner := hydra.NewFuncRunner()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	payload := []byte{0x00, 0xBF, 0x7B, 0x01, 0xDB, 0xFF}
	startWorker := func(id string) string {
		dir := t.TempDir()
		w, werr := worker.New(worker.Config{
			ID: id, DispatcherAddr: addr, Runner: runner,
			HeartbeatInterval: 20 * time.Millisecond, CacheDir: dir,
		})
		if werr != nil {
			t.Fatal(werr)
		}
		go w.Run(ctx)
		deadline := time.Now().Add(5 * time.Second)
		for d.Workers() == 0 || !workerKnown(d, id) {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never registered", id)
			}
			time.Sleep(time.Millisecond)
		}
		return dir
	}

	// Two workers up front: one raw frame fans out to both connections.
	firstDir := startWorker("first-worker")
	secondDir := startWorker("second-worker")

	f := recvStageFrame(t, &proto.Stage{Name: "weights.bin", Data: payload})
	if err := d.StageFrame(f); err != nil {
		t.Fatal(err)
	}
	f.Release()

	lateDir := startWorker("late-worker")
	for name, dir := range map[string]string{"first": firstDir, "second": secondDir, "late": lateDir} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			data, rerr := os.ReadFile(dir + "/weights.bin")
			if rerr == nil && bytes.Equal(data, payload) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s worker never cached the staged frame: %v", name, rerr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Misuse: a non-stage frame is rejected.
	a, b := proto.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Send(&proto.Envelope{Kind: proto.KindHeartbeat, Heartbeat: &proto.Heartbeat{WorkerID: "w"}})
	wf, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Release()
	if err := d.StageFrame(wf); err == nil {
		t.Fatal("StageFrame accepted a heartbeat frame")
	}
}

func workerKnown(d *Dispatcher, id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.workers[id]
	return ok
}
