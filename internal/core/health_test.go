package core

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/obs/obstest"
)

// TestFederatedHealthNamesInstance: in a federation, /healthz backed by
// Engine.Health names the instance whose condition fails and no other. The
// one job waits on an instance that no worker has joined.
func TestFederatedHealthNamesInstance(t *testing.T) {
	const heartbeat = 200 * time.Millisecond
	e, err := NewEngine(Options{Federate: 2, HeartbeatTimeout: heartbeat, Runner: hydra.NewFuncRunner()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if code, body := obstest.Healthz(e.Health); code != http.StatusOK {
		t.Fatalf("/healthz of an idle federation = %d %q, want 200", code, body)
	}
	if _, err := e.Submit(dispatch.Job{Spec: hydra.JobSpec{JobID: "j", NProcs: 1, Cmd: "noop"}}); err != nil {
		t.Fatal(err)
	}
	held := -1
	for i, d := range e.insts {
		if d.QueuedJobs() > 0 {
			held = i
		}
	}
	if held < 0 {
		t.Fatal("the job is queued on no instance")
	}
	want, other := fmt.Sprintf("inst%d: no-workers", held), fmt.Sprintf("inst%d:", 1-held)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := obstest.Healthz(e.Health)
		if code == http.StatusServiceUnavailable && strings.Contains(body, want) {
			if strings.Contains(body, other) {
				t.Fatalf("/healthz names the healthy instance: %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz = %d %q, want 503 naming %q", code, body, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
