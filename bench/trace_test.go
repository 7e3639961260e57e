package main

import (
	"testing"
	"time"

	"jets/internal/dispatch"
)

const us = time.Microsecond

// A hand-written trace of one 2-rank MPI job and one sequential job.
func handTrace() ([]dispatch.Event, []execRec, time.Time, []time.Duration, []time.Duration, []time.Duration) {
	epoch := time.Now()
	ev := func(t time.Duration, k dispatch.EventKind, job, task string) dispatch.Event {
		return dispatch.Event{T: t, Kind: k, JobID: job, TaskID: task}
	}
	events := []dispatch.Event{
		ev(1*us, dispatch.EvJobSubmitted, "m", ""),
		ev(2*us, dispatch.EvJobQueued, "m", ""),
		ev(20*us, dispatch.EvJobSubmitted, "s", ""),
		ev(21*us, dispatch.EvJobQueued, "s", ""),
		ev(30*us, dispatch.EvGroupAssembled, "m", ""),
		ev(40*us, dispatch.EvTaskSent, "m", "m/rank0"),
		ev(44*us, dispatch.EvTaskSent, "m", "m/rank1"),
		ev(70*us, dispatch.EvPMIWired, "m", ""),
		ev(100*us, dispatch.EvTaskDone, "m", "m/rank1"),
		ev(110*us, dispatch.EvTaskDone, "m", "m/rank0"),
		ev(111*us, dispatch.EvJobCompleted, "m", ""),
		ev(112*us, dispatch.EvGroupAssembled, "s", ""),
		ev(113*us, dispatch.EvTaskSent, "s", "s/seq"),
		ev(150*us, dispatch.EvTaskDone, "s", "s/seq"),
		ev(150*us, dispatch.EvJobCompleted, "s", ""),
	}
	at := func(d time.Duration) time.Time { return epoch.Add(d) }
	execs := []execRec{
		{task: "m/rank0", job: "m", start: at(50 * us), end: at(104 * us)},
		{task: "m/rank1", job: "m", start: at(52 * us), end: at(96 * us)},
		{task: "s/seq", job: "s", start: at(123 * us), end: at(143 * us)},
	}
	submitStart := []time.Duration{0, 19 * us}
	submitEnd := []time.Duration{4 * us, 23 * us}
	done := []time.Duration{114 * us, 152 * us}
	return events, execs, epoch, submitStart, submitEnd, done
}

func findSpan(t *testing.T, spans []span, name string, nth int) span {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			if nth == 0 {
				return s
			}
			nth--
		}
	}
	t.Fatalf("no span %q", name)
	return span{}
}

func TestStitchHandWrittenTrace(t *testing.T) {
	jobs := collect(handTrace())
	if len(jobs) != 2 || jobs[0].id != "m" || jobs[1].id != "s" {
		t.Fatalf("collect: %+v", jobs)
	}
	m := stitch(jobs[0])
	for _, c := range []struct {
		name       string
		nth        int
		start, end time.Duration
	}{
		{spJob, 0, 0, 114 * us},
		{spSubmit, 0, 0, 4 * us},
		{spQueueWait, 0, 2 * us, 30 * us},
		{spAssembleSent, 0, 30 * us, 44 * us},
		{spTask, 0, 40 * us, 110 * us},
		{spTask, 1, 44 * us, 100 * us},
		{spWire, 0, 40 * us, 50 * us},
		{spExec, 1, 52 * us, 96 * us},
		{spResultReturn, 0, 104 * us, 110 * us},
		{spPMIWired, 0, 40 * us, 70 * us},
		{spResultDone, 0, 110 * us, 114 * us},
	} {
		s := findSpan(t, m, c.name, c.nth)
		if s.Start != c.start || s.End != c.end || s.Job != "m" {
			t.Errorf("%s[%d] = [%v, %v] of job %s, want [%v, %v] of m", c.name, c.nth, s.Start, s.End, s.Job, c.start, c.end)
		}
	}
	// Children of the task spans point at them; stage spans at the root.
	if p := findSpan(t, m, spExec, 1).Parent; m[p].Name != spTask || m[p].Start != 44*us {
		t.Errorf("rank1's exec span has parent %+v", m[p])
	}
	if p := findSpan(t, m, spQueueWait, 0).Parent; p != 0 {
		t.Errorf("queue_wait parent = %d, want the root", p)
	}
}

func TestSelfTimeSubtractsCoveredPartOnly(t *testing.T) {
	jobs := collect(handTrace())
	m := stitch(jobs[0])
	// Root [0,114]: children cover [0,4] submit, [2,30] queue wait, [30,44]
	// assemble, [40,110] and [44,100] tasks, [40,70] pmi, [110,114] result:
	// their union is the whole span, so nothing is unaccounted for.
	if got := selfTime(m, 0); got != 0 {
		t.Errorf("root self time = %v, want 0", got)
	}
	// rank0's task [40,110] = wire [40,50] + exec [50,104] + return [104,110].
	if got := selfTime(m, findSpan(t, m, spTask, 0).ID); got != 0 {
		t.Errorf("task self time = %v, want 0", got)
	}
	// The sequential job leaves two gaps in its root [19,152]: [23,112] is
	// queue wait (covered, it starts at 21 inside submit), and after the
	// task ends at 150 the result span covers to 152. Uncovered: [19,19]=0.
	s := stitch(jobs[1])
	if got := selfTime(s, 0); got != 0 {
		t.Errorf("seq root self time = %v, want 0", got)
	}
	// Hand-made gaps and overlaps: parent [0,100], children [10,30], [20,50]
	// (overlapping), [90,120] (sticking out). Covered: 10..50 and 90..100.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120},
		{ID: 4, Parent: 1, Start: 0, End: 100}, // a grandchild is not a child
	}
	if got := selfTime(spans, 0); got != 50 {
		t.Errorf("self time with overlap and overhang = %v, want 50", got)
	}
}

func TestStitchLeavesOutUnobservedSpans(t *testing.T) {
	j := &jobTimes{id: "x", submitStart: 0, submitEnd: 5, done: 50, queued: 1, assembled: unset, wired: unset}
	spans := stitch(j)
	for _, s := range spans {
		if s.Name == spQueueWait || s.Name == spAssembleSent || s.Name == spPMIWired {
			t.Errorf("span %s built from a missing timestamp", s.Name)
		}
	}
	if got := selfTime(spans, 0); got != 45 {
		t.Errorf("uncovered time = %v, want 45", got)
	}
}

func TestSpanJSONLine(t *testing.T) {
	got := string(appendSpanJSON(nil, span{Job: `a"b`, ID: 2, Parent: 0, Name: spExec, Start: 5, End: 9}))
	want := `{"job":"a\"b","id":2,"parent":0,"name":"worker.exec","start_ns":5,"end_ns":9}` + "\n"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
}
