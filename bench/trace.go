package main

import (
	"bufio"
	"context"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/proto"
)

// The traced run records spans from outside the program, using only the
// hooks core.Options offers: a Runner wrapper times each task's exec, a
// Journal decorator times and counts each append, OnEvent supplies the
// dispatcher-edge timestamps, and the submit loop times Submit and OnDone
// itself. All clocks are offsets from Dispatcher.Epoch(). Spans stay in
// memory and are written as JSON-lines when the round is over.

// tracer collects the raw timestamps of one traced round.
type tracer struct {
	out string // JSON-lines file to write the spans to

	// events is appended by the dispatcher's single event-drainer goroutine
	// and read only after Engine.Close has waited for that goroutine. It is
	// preallocated rather than a dispatch.TraceRecorder, which grows by
	// doubling: the drainer must never sit in a multi-MB copy while the
	// dispatcher's 8192-event buffer fills, because a dropped event voids
	// the trace.
	events []dispatch.Event

	mu    sync.Mutex
	execs []execRec

	// Indexed by job; written by the submit goroutine (start/end) and by the
	// job's own OnDone callback (done).
	submitStart, submitEnd, done []time.Duration
	submitNs                     int64     // total time inside Submit/SubmitBatch
	epoch                        time.Time // Dispatcher.Epoch(), the zero of every offset

	appendNs, appends atomic.Int64
}

type execRec struct {
	task, job  string
	start, end time.Time
}

// instrument hooks the tracer into the options of an engine that will run n
// jobs. Events start arriving (worker-joined) as soon as the engine starts.
func (t *tracer) instrument(o *core.Options, n int) error {
	t.events = make([]dispatch.Event, 0, 16*n+64)
	o.OnEvent = func(e dispatch.Event) { t.events = append(t.events, e) }
	o.Runner = tracedRunner{inner: o.Runner, t: t}
	if o.DataDir != "" {
		// Same WAL the DataDir option would open; wrapping it hides the
		// optional Checkpointer interface, which a traced round is far too
		// small to trigger anyway.
		wal, err := journal.OpenWAL(journal.Options{Dir: o.DataDir})
		if err != nil {
			return err
		}
		o.Journal = tracedJournal{Journal: wal, t: t}
	}
	return nil
}

func (t *tracer) begin(n int, epoch time.Time) {
	t.epoch = epoch
	t.submitStart = make([]time.Duration, n)
	t.submitEnd = make([]time.Duration, n)
	t.done = make([]time.Duration, n)
}

// submitted records one Submit (hi-lo = 1) or SubmitBatch call; the job IDs
// are filled in from the job-submitted events when stitching.
func (t *tracer) submitted(lo, hi int, start, end time.Duration) {
	for i := lo; i < hi; i++ {
		t.submitStart[i], t.submitEnd[i] = start, end
	}
	t.submitNs += int64(end - start)
}

type tracedRunner struct {
	inner hydra.Runner
	t     *tracer
}

func (r tracedRunner) Run(ctx context.Context, task *proto.Task, env []string, stdout io.Writer) (int, error) {
	start := time.Now()
	code, err := r.inner.Run(ctx, task, env, stdout)
	end := time.Now()
	r.t.mu.Lock()
	r.t.execs = append(r.t.execs, execRec{task: task.TaskID, job: task.JobID, start: start, end: end})
	r.t.mu.Unlock()
	return code, err
}

type tracedJournal struct {
	journal.Journal
	t *tracer
}

func (j tracedJournal) Append(r journal.Record) error {
	t0 := time.Now()
	err := j.Journal.Append(r)
	j.t.appendNs.Add(int64(time.Since(t0)))
	j.t.appends.Add(1)
	return err
}

// ---------------------------------------------------------------------------
// Stitching

// span is one timed interval of one job. Spans of a job share its ID; Parent
// is the ID (index within the job) of the span that caused it, -1 for the
// job's root span.
type span struct {
	Job        string
	ID, Parent int
	Name       string
	Start, End time.Duration
}

func (s span) dur() time.Duration { return max(s.End-s.Start, 0) }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (ranks of an MPI job run in parallel) and
// may stick out of the parent; only the covered part inside it is removed.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent == id {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids = append(kids, iv{a, b})
			}
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered, edge := time.Duration(0), p.Start
	for _, k := range kids {
		if k.b > edge {
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
	}
	return p.dur() - covered
}

// Span names. The stage spans are children of the job's root span; the
// three task-stage spans are children of their task's span.
const (
	spJob          = "job"                       // submit start -> OnDone
	spSubmit       = "dispatch.submit"           // inside Submit / SubmitBatch
	spQueueWait    = "dispatch.queue_wait"       // job-queued -> group-assembled
	spAssembleSent = "dispatch.assemble_to_sent" // group-assembled -> last task-sent
	spTask         = "task"                      // task-sent -> task-done
	spWire         = "proto.wire"                // task-sent -> runner start
	spExec         = "worker.exec"               // runner start -> runner end
	spResultReturn = "worker.result_return"      // runner end -> task-done
	spPMIWired     = "pmi.wired"                 // first task-sent -> pmi-wired
	spResultDone   = "dispatch.result_to_done"   // last task-done -> OnDone
)

const unset = time.Duration(-1)

// jobTimes are the raw timestamps of one job, from all four sources.
type jobTimes struct {
	id                           string
	submitStart, submitEnd, done time.Duration
	queued, assembled, wired     time.Duration
	tasks                        []*taskTimes
}

type taskTimes struct {
	id                              string
	sent, runStart, runEnd, taskEnd time.Duration
}

func (j *jobTimes) task(id string) *taskTimes {
	for _, t := range j.tasks {
		if t.id == id {
			return t
		}
	}
	t := &taskTimes{id: id, sent: unset, runStart: unset, runEnd: unset, taskEnd: unset}
	j.tasks = append(j.tasks, t)
	return t
}

// collect folds the dispatcher events and runner records into per-job
// timestamps, in submission order. The i-th job-submitted event belongs to
// the i-th submitted job (one submit goroutine), which ties the harness-side
// timers to job IDs.
func collect(events []dispatch.Event, execs []execRec, epoch time.Time,
	submitStart, submitEnd, done []time.Duration) []*jobTimes {
	byID := make(map[string]*jobTimes, len(submitStart))
	var jobs []*jobTimes
	for _, e := range events {
		if e.Kind == dispatch.EvJobSubmitted {
			i := len(jobs)
			if i >= len(submitStart) {
				continue
			}
			j := &jobTimes{id: e.JobID, submitStart: submitStart[i], submitEnd: submitEnd[i], done: done[i],
				queued: unset, assembled: unset, wired: unset}
			jobs = append(jobs, j)
			byID[e.JobID] = j
			continue
		}
		j := byID[e.JobID]
		if j == nil {
			continue
		}
		switch e.Kind {
		case dispatch.EvJobQueued:
			if j.queued == unset {
				j.queued = e.T
			}
		case dispatch.EvGroupAssembled:
			j.assembled = e.T
		case dispatch.EvTaskSent:
			j.task(e.TaskID).sent = e.T
		case dispatch.EvPMIWired:
			j.wired = e.T
		case dispatch.EvTaskDone:
			j.task(e.TaskID).taskEnd = e.T
		}
	}
	for _, x := range execs {
		if j := byID[x.job]; j != nil {
			t := j.task(x.task)
			t.runStart, t.runEnd = x.start.Sub(epoch), x.end.Sub(epoch)
		}
	}
	return jobs
}

// stitch turns one job's timestamps into its span tree. A span whose
// endpoints were not both observed is left out (and shows up as uncovered
// time in trace.coverage_frac).
func stitch(j *jobTimes) []span {
	spans := []span{{Job: j.id, ID: 0, Parent: -1, Name: spJob, Start: j.submitStart, End: j.done}}
	add := func(parent int, name string, start, end time.Duration) int {
		if start == unset || end == unset {
			return -1
		}
		spans = append(spans, span{Job: j.id, ID: len(spans), Parent: parent, Name: name, Start: start, End: max(end, start)})
		return len(spans) - 1
	}
	add(0, spSubmit, j.submitStart, j.submitEnd)
	add(0, spQueueWait, j.queued, j.assembled)
	firstSent, lastSent, lastEnd := unset, unset, unset
	for _, t := range j.tasks {
		if t.sent != unset && (firstSent == unset || t.sent < firstSent) {
			firstSent = t.sent
		}
		lastSent, lastEnd = max(lastSent, t.sent), max(lastEnd, t.taskEnd)
	}
	add(0, spAssembleSent, j.assembled, lastSent)
	for _, t := range j.tasks {
		if id := add(0, spTask, t.sent, t.taskEnd); id >= 0 {
			add(id, spWire, t.sent, t.runStart)
			add(id, spExec, t.runStart, t.runEnd)
			add(id, spResultReturn, t.runEnd, t.taskEnd)
		}
	}
	add(0, spPMIWired, firstSent, j.wired)
	add(0, spResultDone, lastEnd, j.done)
	return spans
}

// layerMetrics stitches the round's trace, writes it out, and fills in the
// per-layer metrics that come from spans.
func (t *tracer) layerMetrics(m map[string]float64, n int) {
	jobs := collect(t.events, t.execs, t.epoch, t.submitStart, t.submitEnd, t.done)
	durs := map[string][]int64{}
	var coverage, execFrac []float64
	var mpiApp []int64
	var w *bufio.Writer
	if f, err := os.Create(t.out); err == nil {
		defer f.Close()
		w = bufio.NewWriterSize(f, 1<<20)
		defer w.Flush()
	}
	var line []byte
	for _, j := range jobs {
		spans := stitch(j)
		var longestExec time.Duration
		for _, s := range spans {
			durs[s.Name] = append(durs[s.Name], int64(s.dur()))
			if s.Name == spExec {
				longestExec = max(longestExec, s.dur())
				if len(j.tasks) > 1 || j.wired != unset { // a rank of an MPI job
					mpiApp = append(mpiApp, int64(s.dur()))
				}
			}
			if w != nil {
				line = appendSpanJSON(line[:0], s)
				w.Write(line)
			}
		}
		if root := spans[0].dur(); root > 0 {
			coverage = append(coverage, 1-float64(selfTime(spans, 0))/float64(root))
		}
		if j.assembled != unset && j.done > j.assembled {
			execFrac = append(execFrac, float64(longestExec)/float64(j.done-j.assembled))
		}
	}
	p := func(name string, pct float64) float64 {
		s := durs[name]
		sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
		return float64(percentile(s, pct))
	}
	m["dispatch.submit_ns"] = float64(t.submitNs) / float64(n)
	m["dispatch.queue_wait_p50_us"] = p(spQueueWait, 50) / 1e3
	m["dispatch.queue_wait_p99_us"] = p(spQueueWait, tailPercentile(len(durs[spQueueWait]))) / 1e3
	m["dispatch.assemble_to_sent_us"] = p(spAssembleSent, 50) / 1e3
	m["dispatch.result_to_done_us"] = p(spResultDone, 50) / 1e3
	m["proto.wire_us"] = p(spWire, 50) / 1e3
	m["worker.exec_us"] = p(spExec, 50) / 1e3
	m["worker.result_return_us"] = p(spResultReturn, 50) / 1e3
	m["pmi.wired_us"] = p(spPMIWired, 50) / 1e3
	sort.Slice(mpiApp, func(i, k int) bool { return mpiApp[i] < mpiApp[k] })
	m["mpi.app_us"] = float64(percentile(mpiApp, 50)) / 1e3
	m["worker.exec_frac"] = median(execFrac)
	m["trace.coverage_frac"] = median(coverage)
	m["trace.job_p50_us"] = p(spJob, 50) / 1e3
	if a := t.appends.Load(); a > 0 {
		m["journal.append_ns"] = float64(t.appendNs.Load()) / float64(a)
	}
}

// appendSpanJSON renders one span as a JSON line without reflection; a
// traced round writes several hundred thousand of them.
func appendSpanJSON(b []byte, s span) []byte {
	b = append(b, `{"job":`...)
	b = strconv.AppendQuote(b, s.Job)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(s.ID), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(s.Parent), 10)
	b = append(b, `,"name":"`...)
	b = append(b, s.Name...)
	b = append(b, `","start_ns":`...)
	b = strconv.AppendInt(b, int64(s.Start), 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, int64(s.End), 10)
	return append(b, "}\n"...)
}
