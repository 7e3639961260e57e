package faults

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/obs/obstest"
	"jets/internal/worker"
)

// TestHealthNoWorkersDuringChurnAndClear runs the §6.1.5 churn harness until
// the allocation has shrunk to zero under a queued batch: /healthz must name
// no-workers once no worker has been registered for HeartbeatTimeout, and
// must read ok again as soon as a replacement worker joins.
func TestHealthNoWorkersDuringChurnAndClear(t *testing.T) {
	const (
		nWorkers  = 4
		heartbeat = 500 * time.Millisecond
	)
	runner := hydra.NewFuncRunner()
	block := make(chan struct{})
	runner.Register("linger", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		select {
		case <-block:
			return 0
		case <-ctx.Done():
			return 1
		}
	})
	eng, err := core.NewEngine(core.Options{
		LocalWorkers:     nWorkers,
		Runner:           runner,
		HeartbeatTimeout: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d := eng.Dispatcher()

	// A batch wide enough that jobs queue behind the four 1-core workers.
	var handles []*dispatch.Handle
	for i := 0; i < 30; i++ {
		h, err := eng.Submit(dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("l%d", i), NProcs: 1, Cmd: "linger"},
			Type: dispatch.Sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	waitUntil(t, "batch started", func() bool { return d.RunningJobs() == nWorkers })
	if code, body := obstest.Healthz(eng.Health); code != http.StatusOK {
		t.Fatalf("/healthz with every worker alive = %d %q, want 200", code, body)
	}

	// Churn the allocation down to zero.
	killed := time.Now()
	inj := NewInjector(eng.Workers(), time.Hour, 7)
	for inj.KillOne() {
	}
	waitUntil(t, "no-workers on /healthz", func() bool {
		code, body := obstest.Healthz(eng.Health)
		return code == http.StatusServiceUnavailable && strings.Contains(body, "no-workers")
	})
	if since := time.Since(killed); since < heartbeat {
		t.Fatalf("no-workers read %v after the kills, before HeartbeatTimeout %v", since, heartbeat)
	}
	if d.QueuedJobs() == 0 {
		t.Fatal("no jobs left queued behind the dead allocation")
	}

	// A replacement pilot job joins: the condition clears at once.
	w, err := worker.New(worker.Config{ID: "rejoin", DispatcherAddr: eng.Addr(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	waitUntil(t, "replacement worker registered", func() bool { return d.Workers() == 1 })
	if code, body := obstest.Healthz(eng.Health); code != http.StatusOK {
		t.Fatalf("/healthz after a worker rejoined = %d %q, want 200", code, body)
	}
	close(block)
	for _, h := range handles {
		h.Wait() // jobs on killed workers fail (no retries); the rest finish
	}
}

// waitUntil polls cond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
