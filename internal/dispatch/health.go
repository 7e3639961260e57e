package dispatch

import (
	"errors"
	"fmt"
	"time"
)

// Health reports every condition under which the dispatcher is losing work,
// holding it at risk, or cannot run it, joined into one error; nil when none
// holds. Each condition is a read of state the dispatcher already keeps or
// stores on a cold path, so Health costs the job path nothing and is meant
// to be called on a scrape of /healthz:
//
//   - journal-degraded: the WAL's last commit failed; appends are buffered
//     and retried, but nothing new reaches the disk.
//   - journal-dropped: journal records were dropped since the last good
//     checkpoint began, so part of the workload would not survive a crash.
//   - spill-degraded: a spill write or open failed; queued jobs stay in
//     memory from then on.
//   - checkpoint-failing: the last online checkpoint failed, so the WAL
//     keeps every segment until one succeeds.
//   - trace-dropped: lifecycle events were lost to observer backpressure
//     since start, so the trace is incomplete.
//   - no-workers: jobs are in flight and no worker has been registered for
//     longer than HeartbeatTimeout.
func (d *Dispatcher) Health() error {
	var errs []error
	fail := func(cond, format string, args ...any) {
		errs = append(errs, errors.New(cond+": "+fmt.Sprintf(format, args...)))
	}
	if d.JournalDegraded() {
		fail("journal-degraded", "journal commits are failing; appends are buffered for retry")
	}
	if n := d.stats.journalErrors.Load() - d.droppedAtCheckpoint.Load(); n > 0 {
		fail("journal-dropped", "%d journal records dropped since the last good checkpoint", n)
	}
	if err := d.spillErr.Load(); err != nil {
		fail("spill-degraded", "queued jobs stay in memory: %v", *err)
	}
	if err := d.checkpointErr.Load(); err != nil {
		fail("checkpoint-failing", "%v", *err)
	}
	if n := d.droppedEvents.Load(); n > 0 {
		fail("trace-dropped", "%d lifecycle events dropped", n)
	}
	d.mu.Lock()
	inFlight, workers, empty := len(d.jobs), len(d.workers), time.Since(d.emptySince)
	d.mu.Unlock()
	if inFlight > 0 && workers == 0 && empty > d.cfg.HeartbeatTimeout {
		fail("no-workers", "%d jobs in flight and no worker for %v", inFlight, empty.Round(time.Millisecond))
	}
	return errors.Join(errs...)
}
