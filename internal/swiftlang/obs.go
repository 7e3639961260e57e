package swiftlang

import (
	"sync/atomic"
	"time"

	"jets/internal/obs"
)

// Client-tier instrumentation: how many tasks the script layer produced, how
// well batching coalesces them, and what compilation costs. Package-level
// instruments following hydra's detached-counter idiom; RegisterMetrics
// exports them through a registry (and the /metrics endpoint).
var (
	swiftTasksSubmitted = obs.NewCounter("swift_tasks_submitted_total",
		"app invocations handed to the JETS executor by the script layer")
	// The histogram is duration-based; batch sizes are encoded as 1s == 1
	// task so bucket edges render as integer task counts.
	swiftBatchSize = obs.NewHist("swift_batch_size",
		"tasks per batched engine submit (1s == 1 task)", batchSizeBounds)
	swiftRedirectDrops = obs.NewCounter("swift_redirect_dropped_bytes_total",
		"stdout-redirect bytes lost to file write errors")
	// "Why is this still waiting?": statements parked on an unset future
	// right now, and how often the runner has retried one after a wake-up (a
	// statement that parks again on a second input counts once per retry).
	swiftSuspended = obs.NewGauge("swift_statements_suspended",
		"compiled statements parked on an unset future")
	swiftResumed = obs.NewCounter("swift_statements_resumed_total",
		"retries of a parked statement after the future it waited for was set")
	// "Why is this loop not advancing?": iterations of any foreach that have
	// been walked and still have work outstanding, loops whose walk is waiting
	// for some of those to retire, and loops the flows-to analysis could not
	// window (each execution walks all of its iterations at once).
	swiftIterationsInflight = obs.NewGauge("swift_foreach_iterations_inflight",
		"foreach iterations walked and not yet retired")
	swiftLoopsParked = obs.NewGauge("swift_foreach_loops_parked",
		"foreach loops whose walk is waiting for in-flight iterations to retire")
	swiftUnbounded = obs.NewCounter("swift_foreach_unbounded_total",
		"executions of a foreach the compiler could not prove safe to walk a window at a time")
	compileNanos atomic.Int64
)

var batchSizeBounds = []time.Duration{
	1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
	16 * time.Second, 32 * time.Second, 64 * time.Second, 128 * time.Second,
	256 * time.Second, 512 * time.Second,
}

// RegisterMetrics exports the script layer's instrumentation through reg.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(swiftTasksSubmitted, swiftBatchSize, swiftRedirectDrops, swiftSuspended, swiftResumed,
		swiftIterationsInflight, swiftLoopsParked, swiftUnbounded)
	reg.GaugeFunc("swift_compile_seconds",
		"wall time of the most recent script compilation", func() float64 {
			return float64(compileNanos.Load()) / 1e9
		})
}
