package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"jets/internal/hydra"
)

func TestEventTraceLifecycle(t *testing.T) {
	rec := &TraceRecorder{}
	tc := startCluster(t, 2, Config{OnEvent: rec.Record})
	tc.runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	h, err := tc.d.Submit(Job{
		Spec: hydra.JobSpec{JobID: "traced", NProcs: 2, Cmd: "app"},
		Type: MPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	// Events are asynchronous; wait for the completion event.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Count(EvJobCompleted) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no completion event; trace: %+v", rec.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rec.Count(EvWorkerJoined); got != 2 {
		t.Errorf("worker-joined=%d", got)
	}
	if got := rec.Count(EvJobSubmitted); got != 1 {
		t.Errorf("job-submitted=%d", got)
	}
	if got := rec.Count(EvTaskSent); got != 2 {
		t.Errorf("task-sent=%d", got)
	}
	if got := rec.Count(EvTaskDone); got != 2 {
		t.Errorf("task-done=%d", got)
	}
	// Ordering: submitted before started before completed for the job.
	var order []EventKind
	for _, e := range rec.Events() {
		if e.JobID == "traced" && (e.Kind == EvJobSubmitted || e.Kind == EvJobStarted || e.Kind == EvJobCompleted) {
			order = append(order, e.Kind)
		}
	}
	want := []EventKind{EvJobSubmitted, EvJobStarted, EvJobCompleted}
	if len(order) != 3 {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v", order)
		}
	}
	// Monotone timestamps.
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("timestamps not monotone at %d: %v", i, events)
		}
	}
	if tc.d.DroppedEvents() != 0 {
		t.Errorf("dropped=%d", tc.d.DroppedEvents())
	}
}

func TestEventTraceFailureAndLoss(t *testing.T) {
	rec := &TraceRecorder{}
	tc := startCluster(t, 2, Config{OnEvent: rec.Record, HeartbeatTimeout: 5 * time.Second})
	tc.runner.Register("fail", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 3
	})
	h, _ := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "f", NProcs: 1, Cmd: "fail"}, Type: Sequential})
	h.Wait()
	tc.workers[0].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for rec.Count(EvJobFailed) == 0 || rec.Count(EvWorkerLost) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("missing failure/loss events: %+v", rec.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTraceWriteJSON(t *testing.T) {
	rec := &TraceRecorder{}
	rec.Record(Event{T: time.Second, Kind: EvJobSubmitted, JobID: "j1"})
	rec.Record(Event{T: 2 * time.Second, Kind: EvJobCompleted, JobID: "j1"})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines=%v", lines)
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != EvJobSubmitted || e.JobID != "j1" {
		t.Fatalf("decoded %+v", e)
	}
}

func TestNoTracingByDefault(t *testing.T) {
	tc := startCluster(t, 1, Config{})
	tc.runner.Register("x", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int { return 0 })
	h, _ := tc.d.Submit(Job{Spec: hydra.JobSpec{JobID: "q", NProcs: 1, Cmd: "x"}, Type: Sequential})
	if res := h.Wait(); res.Failed {
		t.Fatal("job failed")
	}
	if tc.d.DroppedEvents() != 0 {
		t.Fatal("events counted with tracing disabled")
	}
}

// TestEventBurstBehindHeldObserver: events emitted while the observer is
// busy wait for it rather than being dropped, up to a bound far above the
// 8,192 a per-event channel held, and arrive in emit order.
func TestEventBurstBehindHeldObserver(t *testing.T) {
	const burst = 3 * 8192
	held, release := make(chan struct{}), make(chan struct{})
	var got []Event // written only by the drainer; read after Close waits for it
	d := New(Config{OnEvent: func(e Event) {
		if e.Kind == EvJobQueued && e.JobID == "hold" {
			close(held)
			<-release
			return
		}
		if e.Kind == EvJobSubmitted {
			got = append(got, e)
		}
	}})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.emit(Event{Kind: EvJobQueued, JobID: "hold"})
	<-held
	for i := 0; i < burst; i++ {
		d.emit(Event{Kind: EvJobSubmitted, JobID: strconv.Itoa(i)})
	}
	close(release)
	d.Close()
	if n := d.DroppedEvents(); n != 0 {
		t.Errorf("%d events dropped behind a held observer", n)
	}
	if len(got) != burst {
		t.Fatalf("observer saw %d of %d events", len(got), burst)
	}
	for i, e := range got {
		if e.JobID != strconv.Itoa(i) {
			t.Fatalf("event %d carries job %s: out of emit order", i, e.JobID)
		}
	}
}
