package dispatch

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/worker"
)

// TestStageFileFansOutAndReplays covers Dispatcher.StageFile: one call
// reaches every connected worker's cache, and the recorded stage replays to
// a worker that joins afterwards. The payload holds the frame magic byte and
// the '{' that opened the retired JSON frames, so a codec that confuses
// either with framing shows up as a byte mismatch.
func TestStageFileFansOutAndReplays(t *testing.T) {
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
			ID: id, DispatcherAddr: addr, Runner: runner, CacheDir: dir,
		})
		if werr != nil {
			t.Fatal(werr)
		}
		go w.Run(ctx)
		deadline := time.Now().Add(5 * time.Second)
		for !workerKnown(d, id) {
			if time.Now().After(deadline) {
				t.Fatalf("worker %s never registered", id)
			}
			time.Sleep(time.Millisecond)
		}
		return dir
	}

	// Two workers up front: one stage fans out to both connections.
	firstDir := startWorker("first-worker")
	secondDir := startWorker("second-worker")
	d.StageFile("weights.bin", payload)

	lateDir := startWorker("late-worker")
	for name, dir := range map[string]string{"first": firstDir, "second": secondDir, "late": lateDir} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			data, rerr := os.ReadFile(dir + "/weights.bin")
			if rerr == nil && bytes.Equal(data, payload) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s worker never cached the staged file: %v (got % x)", name, rerr, data)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func workerKnown(d *Dispatcher, id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.workers[id]
	return ok
}
