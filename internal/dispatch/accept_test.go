package dispatch

import (
	"context"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/obs/obstest"
	"jets/internal/worker"
)

// TestAcceptSurvivesEMFILE: one Accept error does not stop the worker port.
// After the process ran out of descriptors and got them back, a worker that
// dials late registers within 2 s.
func TestAcceptSurvivesEMFILE(t *testing.T) {
	d := New(Config{})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := obs.AcceptErrors.Value()
	obstest.ExhaustDescriptors(t, addr)
	if obs.AcceptErrors.Value() == before {
		t.Fatal("no Accept error was provoked")
	}

	w, err := worker.New(worker.Config{ID: "late", DispatcherAddr: addr, Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	for deadline := time.Now().Add(2 * time.Second); d.Workers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a worker dialing after the descriptors came back did not register within 2 s")
		}
	}
}
