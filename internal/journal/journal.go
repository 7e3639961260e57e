// Package journal persists the dispatcher's job state transitions so a
// crashed dispatcher can be restarted without losing its workload. The
// model follows the pilot-system line of work (RADICAL-Pilot and kin),
// where restartable bookkeeping is table stakes for many-task runs on real
// machines: every accepted submission, dispatch, retry, and completion is
// appended to a write-ahead log, and a recovery scan at startup rebuilds
// the queues, drops already-completed jobs, and requeues the ones that
// were running when the process died.
//
// Two implementations ship here: WAL (wal.go), an append-only segmented
// log with CRC-framed records and group-committed fsync, and Nop, the
// default that keeps the seed's in-memory-only behavior.
package journal

import (
	"time"

	"jets/internal/obs"
)

// Package-level instrumentation, following the worker/hydra pattern: the
// counters work detached and RegisterMetrics exports them on demand.
var (
	appendsTotal = obs.NewCounter("jets_journal_appends_total",
		"records appended to the dispatcher journal")
	fsyncSeconds = obs.NewHist("jets_journal_fsync_seconds",
		"time per group-committed journal flush (write + fsync)", nil)
)

// RegisterMetrics exports this package's instrumentation through a registry.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(appendsTotal, fsyncSeconds)
}

// Kind enumerates journal record types: the dispatcher's job state
// transitions.
type Kind uint8

// Record kinds. A job's durable life cycle is Submitted → Dispatched →
// (Retried → Dispatched)* → Completed; only jobs without a Completed record
// survive a recovery scan.
const (
	// Submitted records an accepted job with its full specification — the
	// only record that carries enough to rebuild the job at recovery.
	Submitted Kind = 1
	// Dispatched records the job being seated on workers. A job with a
	// Dispatched but no Completed record was running when the process died
	// and is requeued through the retry path at recovery.
	Dispatched Kind = 2
	// Completed records the job reaching a terminal state (Failed
	// distinguishes the outcome). Completed jobs are deduped at recovery.
	Completed Kind = 3
	// Retried records a faulted job re-entering the queue; Attempt keeps
	// the retry budget accounting across restarts.
	Retried Kind = 4
	// Migrated recorded a queued job leaving for another dispatcher instance
	// of the retired in-process federation, Node naming the destination.
	// Nothing writes it any more; recovery treats one in an older WAL like
	// Completed.
	Migrated Kind = 5
	// SpillRef marks a job live whose full specification resides in the
	// dispatcher's spill store (SpillStore) rather than in the log. Only
	// online checkpoints write it: re-journaling a million-job cold backlog
	// as full Submitted records would copy the entire spill store into the
	// WAL, so a checkpoint emits one small SpillRef per spilled job instead.
	// Attempt carries the retry budget; recovery finds the spec's record in
	// the reopened store's by-ID view (SpillStore.Claim).
	SpillRef Kind = 6
)

func (k Kind) String() string {
	switch k {
	case Submitted:
		return "submitted"
	case Dispatched:
		return "dispatched"
	case Completed:
		return "completed"
	case Retried:
		return "retried"
	case Migrated:
		return "migrated"
	case SpillRef:
		return "spillref"
	}
	return "unknown"
}

// Record is one journaled state transition. Only the fields relevant to the
// record's Kind are encoded (see the per-kind comments above).
type Record struct {
	Kind  Kind
	JobID string

	// Submitted payload: the job specification, flattened so this package
	// does not depend on the dispatcher's types.
	JobType   int // dispatch.JobType ordinal (0 sequential, 1 MPI)
	NProcs    int
	Cmd       string
	Args      []string
	Env       []string
	Dir       string
	WallLimit time.Duration

	// Completed payload.
	Failed bool

	// Retried payload.
	Attempt int

	// Migrated payload.
	Node string
}

// Journal persists dispatcher state transitions. Appends are buffered and
// become durable at the next flush tick or Sync; the dispatcher owns its
// journal and closes it on Close.
type Journal interface {
	// Append buffers one record for the next group commit. It never blocks
	// on the disk: durability is provided by the flusher's fsync cadence
	// (or an explicit Sync), which is the property that keeps the submit
	// hot path within the benchmark gate.
	Append(Record) error
	// Sync forces every buffered record to stable storage.
	Sync() error
	// Replay streams every durable record, oldest first, to fn. It must be
	// called before the first Append, and stops early if fn errors.
	Replay(fn func(Record) error) error
	// Compact drops the history consumed by Replay once the caller has
	// re-journaled the live state (appends made after open land in fresh
	// segments that Compact never touches).
	Compact() error
	// Close flushes buffered records and releases resources.
	Close() error
}

// Checkpointer is the optional online-compaction interface a Journal may
// implement (WAL does). Checkpoint atomically begins a fresh segment, writes
// the records the callback emits — a self-contained snapshot of all live
// state — fsyncs them, and drops every older segment, bounding the journal's
// size over an arbitrarily long uptime. Group-commit flushes are held off
// for the duration, so records appended concurrently land after the snapshot
// in replay order and apply on top of it (replay is idempotent per job ID).
type Checkpointer interface {
	// Segments reports how many segment files the journal currently spans —
	// the threshold signal for triggering a checkpoint.
	Segments() int
	// Checkpoint re-journals the live state: write must emit every record
	// the caller needs to survive a restart, then return nil. emit is valid
	// only until write returns. On error nothing is dropped — the old
	// segments are kept and replay still covers the full history.
	Checkpoint(write func(emit func(Record) error) error) error
}

// Nop is the default journal: no durability, every operation succeeds, and
// Replay yields nothing. It preserves the engine's original in-memory-only
// behavior.
type Nop struct{}

// Append implements Journal.
func (Nop) Append(Record) error { return nil }

// Sync implements Journal.
func (Nop) Sync() error { return nil }

// Replay implements Journal.
func (Nop) Replay(func(Record) error) error { return nil }

// Compact implements Journal.
func (Nop) Compact() error { return nil }

// Close implements Journal.
func (Nop) Close() error { return nil }
