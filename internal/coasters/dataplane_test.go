package coasters

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/proto"
)

// collectTaskOutput drains the client's output channel until every task in
// want has delivered at least want[taskID] bytes, or the deadline passes.
func collectTaskOutput(t *testing.T, c *DataClient, want map[string]int, deadline time.Duration) map[string][]byte {
	t.Helper()
	got := map[string][]byte{}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	done := func() bool {
		for id, n := range want {
			if len(got[id]) < n {
				return false
			}
		}
		return true
	}
	for !done() {
		select {
		case ch, ok := <-c.Outputs():
			if !ok {
				t.Fatalf("output channel closed early; got %v", lens(got))
			}
			got[ch.TaskID] = append(got[ch.TaskID], ch.Data...)
		case <-timer.C:
			t.Fatalf("timed out waiting for output; got %v want %v", lens(got), want)
		}
	}
	return got
}

func lens(m map[string][]byte) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

// TestDataPlaneInteropMatrix drives stage-in and output-out through a real
// dispatcher and data-plane endpoint: both must deliver byte-identical
// payloads, including bytes that collide with the frame magic, the old JSON
// opener and the poison byte. (The name dates from when worker wire, client
// wire and relay mode were independent axes; there is one of each now.)
func TestDataPlaneInteropMatrix(t *testing.T) {
	payload := append(bytes.Repeat([]byte{0x5A}, 700), 0x00, 0xBF, 0x7B, 0xDB, 0xFF)
	cacheRoot := t.TempDir()
	runner := hydra.NewFuncRunner()
	runner.Register("emit", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		stdout.Write(payload)
		return 0
	})
	svc, err := NewService(Config{
		Provider: &LocalProvider{Runner: runner, CacheDir: cacheRoot},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.EnsureWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	addr, err := svc.ServeData("")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := DialData(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	// Stage in through the data plane: service store and every
	// worker cache must hold the exact bytes.
	if err := dc.Stage("model.bin", payload, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	stored, ok := svc.Get("model.bin")
	if !ok || !bytes.Equal(stored, payload) {
		t.Fatalf("service store: ok=%v len=%d", ok, len(stored))
	}
	// The staged ack confirms the service store; worker fan-out
	// is asynchronous, so poll for both caches.
	deadline := time.Now().Add(5 * time.Second)
	for {
		matches, gerr := filepath.Glob(filepath.Join(cacheRoot, "*", "model.bin"))
		if gerr != nil {
			t.Fatal(gerr)
		}
		complete := len(matches) == 2
		for _, m := range matches {
			data, rerr := os.ReadFile(m)
			if rerr != nil || !bytes.Equal(data, payload) {
				complete = false
			}
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker caches never staged: %v", matches)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Output out through the data plane.
	h, err := svc.Submit(context.Background(), dispatch.Job{
		Spec: hydra.JobSpec{JobID: "j1", NProcs: 1, Cmd: "emit"},
		Type: dispatch.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed {
		t.Fatalf("job failed: %s", res.Err)
	}
	got := collectTaskOutput(t, dc, map[string]int{"j1/seq": len(payload)}, 5*time.Second)
	if !bytes.Equal(got["j1/seq"], payload) {
		t.Fatalf("output payload differs: got %d bytes", len(got["j1/seq"]))
	}
}

// TestJSONv1PeerRejectedAtDataPort: a data client whose first frame is JSON
// v1 is disconnected without a reply and never becomes a subscriber; the
// endpoint keeps serving clients on the real wire.
func TestJSONv1PeerRejectedAtDataPort(t *testing.T) {
	svc, err := NewService(Config{Provider: &LocalProvider{Runner: hydra.NewFuncRunner()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr, err := svc.ServeData("")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := `{"kind":"register","proto":1,"register":{"worker_id":"data-client"}}`
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes, err %v; want the connection closed with no reply", n, err)
	}
	svc.subMu.RLock()
	subs := len(svc.subs)
	svc.subMu.RUnlock()
	if subs != 0 {
		t.Fatalf("%d subscribers registered by a JSON v1 peer", subs)
	}

	dc, err := DialData(addr)
	if err != nil {
		t.Fatalf("endpoint stopped serving after the rejection: %v", err)
	}
	defer dc.Close()
	if err := dc.Stage("after.bin", []byte("ok"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyBufferLifetimeSlowClient is the buffer-lifetime hardening
// test (run under -race in CI): 32 workers stream output concurrently to
// one deliberately slow data client while PoisonFrames scribbles on every
// released buffer. Each task fills its chunks with a task-unique byte, so a
// pooled buffer recycled while still queued for the subscriber would show
// up as a chunk containing foreign or poisoned (0xDB) bytes. Slow-client
// overflow must drop frames, never corrupt or block them.
func TestZeroCopyBufferLifetimeSlowClient(t *testing.T) {
	proto.PoisonFrames(true)
	t.Cleanup(func() { proto.PoisonFrames(false) })

	const (
		workers      = 32
		jobs         = 64
		chunksPerJob = 48 // 3072 chunks total, 3x the subscriber queue, so overflow drops really run
		chunkSize    = 512
	)
	runner := hydra.NewFuncRunner()
	runner.Register("fill", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		b := fillByte(args[0])
		chunk := bytes.Repeat([]byte{b}, chunkSize)
		for i := 0; i < chunksPerJob; i++ {
			stdout.Write(chunk)
		}
		return 0
	})
	svc, err := NewService(Config{Provider: &LocalProvider{Runner: runner}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.EnsureWorkers(context.Background(), workers); err != nil {
		t.Fatal(err)
	}
	addr, err := svc.ServeData("")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := DialData(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	// Slow consumer: drain with a delay so the subscriber queue backs up
	// and the drop path runs while workers keep streaming.
	var mu sync.Mutex
	checked := 0
	var consumerDone sync.WaitGroup
	consumerDone.Add(1)
	go func() {
		defer consumerDone.Done()
		for ch := range dc.Outputs() {
			want := fillByte(ch.TaskID)
			for _, b := range ch.Data {
				if b != want {
					t.Errorf("task %s: chunk byte %#x want %#x (recycled or poisoned buffer)", ch.TaskID, b, want)
					return
				}
			}
			mu.Lock()
			checked++
			mu.Unlock()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	var handles []*dispatch.Handle
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("fill%d", i)
		h, serr := svc.Submit(context.Background(), dispatch.Job{
			Spec: hydra.JobSpec{JobID: id, NProcs: 1, Cmd: "fill", Args: []string{id + "/seq"}},
			Type: dispatch.Sequential,
		})
		if serr != nil {
			t.Fatal(serr)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			t.Fatalf("job %s failed: %s", res.JobID, res.Err)
		}
	}
	// Give the relay a moment to push what it still holds, then close the
	// client to end the consumer.
	time.Sleep(100 * time.Millisecond)
	dc.Close()
	consumerDone.Wait()

	mu.Lock()
	n := checked
	mu.Unlock()
	if n == 0 {
		t.Fatal("slow client verified zero chunks")
	}
	t.Logf("verified %d chunks, %d dropped at the relay", n, svc.DroppedOutputs())
}

// fillByte derives a task's expected fill from its ID, never colliding with
// the 0xDB poison byte.
func fillByte(taskID string) byte {
	var h uint32 = 2166136261
	for i := 0; i < len(taskID); i++ {
		h = (h ^ uint32(taskID[i])) * 16777619
	}
	b := byte(h % 251)
	if b == 0xDB {
		b = 0x11
	}
	return b
}

// TestGoroutinesPerDataPlaneClient pins what a connected data client costs
// the service at rest: one goroutine, the connection's reader. Its outbox
// runs a drain goroutine only while relayed frames wait to be written.
// Nothing remains once the clients disconnect. The clients are bare codecs,
// so none of the counted goroutines is theirs.
func TestGoroutinesPerDataPlaneClient(t *testing.T) {
	const clients, want = 8, 1
	svc, err := NewService(Config{Provider: &LocalProvider{Runner: hydra.NewFuncRunner()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr, err := svc.ServeData("")
	if err != nil {
		t.Fatal(err)
	}
	g0 := settledGoroutines()
	codecs := make([]*proto.Codec, clients)
	for i := range codecs {
		c, err := proto.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(&proto.Envelope{Kind: proto.KindRegister, Register: &proto.Register{WorkerID: "data-client"}}); err != nil {
			t.Fatal(err)
		}
		if ack, err := c.Recv(); err != nil || ack.Kind != proto.KindRegistered {
			t.Fatalf("handshake: %+v, %v", ack, err)
		}
		codecs[i] = c
	}
	g1 := settledGoroutines()
	perClient := float64(g1-g0) / clients
	t.Logf("%.2f goroutines per idle data client", perClient)
	if perClient != want {
		t.Fatalf("%.2f goroutines per idle data client, want %d", perClient, want)
	}
	for _, c := range codecs {
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every client disconnected, want %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines is the goroutine count once it has held for 20 ms.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
