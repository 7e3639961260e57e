package dispatch

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one dispatcher life-cycle occurrence, for observability and
// post-run analysis (the §6.1.5 experiment's "worker and user task start
// and stop times were recorded" instrumentation).
type Event struct {
	// T is the offset from the dispatcher epoch.
	T    time.Duration `json:"t"`
	Kind EventKind     `json:"kind"`

	WorkerID string `json:"worker,omitempty"`
	JobID    string `json:"job,omitempty"`
	TaskID   string `json:"task,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// EventKind enumerates trace event types.
type EventKind string

// Event kinds. A job's life cycle traces as submitted → queued →
// group-assembled → started → task-sent* → pmi-wired (MPI jobs) →
// task-done* → completed | failed | retried, with retried feeding back into
// queued for the next attempt.
const (
	EvWorkerJoined EventKind = "worker-joined"
	EvWorkerLost   EventKind = "worker-lost"
	EvJobSubmitted EventKind = "job-submitted"
	// EvJobQueued marks the job entering a scheduling shard's queue, both on
	// first submission and on each retry requeue (Detail "retry").
	EvJobQueued EventKind = "job-queued"
	// EvGroupAssembled marks the scheduling pass seating the job on its
	// worker group (Detail names the path: "local" or "stolen").
	EvGroupAssembled EventKind = "group-assembled"
	EvJobStarted     EventKind = "job-started"
	EvTaskSent       EventKind = "task-sent"
	// EvPMIWired marks all ranks of an MPI job having connected to the job's
	// PMI server: the point where MPI_Init can complete.
	EvPMIWired     EventKind = "pmi-wired"
	EvTaskDone     EventKind = "task-done"
	EvJobCompleted EventKind = "job-completed"
	EvJobFailed    EventKind = "job-failed"
	EvJobRetried   EventKind = "job-retried"
	// EvJobMigrated marks a queued job leaving this dispatcher for a
	// federation peer (Detail names the destination instance). Terminal
	// locally; the job's life cycle continues on the destination.
	EvJobMigrated EventKind = "job-migrated"
)

// maxPendingEvents bounds the events emitted but not yet taken by the
// drainer. A batch is delivered in one pass without the lock, so the bound
// only has to cover the events emitted while the observer handles the
// previous batch; past it, events are dropped (counted in DroppedEvents)
// rather than growing memory behind a stalled observer.
const maxPendingEvents = 1 << 16

// emit records an event; safe from any goroutine, with or without locks
// held. The event is queued for a dedicated drainer goroutine, so the
// observer can never deadlock the scheduler, and emit never blocks on it.
func (d *Dispatcher) emit(e Event) {
	if d.evReady == nil {
		return
	}
	e.T = time.Since(d.epoch)
	d.evMu.Lock()
	if len(d.evPending) >= maxPendingEvents {
		d.evMu.Unlock()
		d.droppedEvents.Add(1)
		return
	}
	d.evPending = append(d.evPending, e)
	first := len(d.evPending) == 1
	d.evMu.Unlock()
	if first {
		// The drainer swaps out whole batches, so only the first event of
		// a batch needs to wake it.
		select {
		case d.evReady <- struct{}{}:
		default:
		}
	}
}

// drainEvents delivers pending events in emit order, a batch at a time: it
// swaps the pending slice for its spare under the lock and calls the
// observer without it. On quit it delivers the last batch and returns.
func (d *Dispatcher) drainEvents() {
	defer d.evWG.Done()
	var spare []Event
	deliver := func() {
		d.evMu.Lock()
		batch := d.evPending
		d.evPending = spare[:0]
		d.evMu.Unlock()
		for i := range batch {
			d.cfg.OnEvent(batch[i])
		}
		spare = batch
	}
	for {
		select {
		case <-d.evReady:
			deliver()
		case <-d.eventsQuit:
			deliver()
			return
		}
	}
}

// DroppedEvents reports events lost to observer backpressure.
func (d *Dispatcher) DroppedEvents() int {
	return int(d.droppedEvents.Load())
}

// TraceRecorder is an OnEvent sink that retains the full event sequence.
type TraceRecorder struct {
	mu     sync.Mutex
	events []Event
}

// Record is the Config.OnEvent callback.
func (t *TraceRecorder) Record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded sequence.
func (t *TraceRecorder) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Count returns how many events of the kind were recorded (all kinds when
// kind is empty).
func (t *TraceRecorder) Count(kind EventKind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if kind == "" {
		return len(t.events)
	}
	n := 0
	for _, e := range t.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// WriteJSON renders the trace as JSON lines.
func (t *TraceRecorder) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, e := range t.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
