package dispatch

import (
	"slices"
	"sort"
)

// QueuePolicy orders the job queue. The paper's JETS uses simple FIFO for
// speed (§7 notes priority scheduling and backfill as planned work; both are
// implemented here as extensions and compared in an ablation benchmark).
type QueuePolicy interface {
	// Push appends a newly submitted job.
	Push(j *Job)
	// Requeue returns a previously dispatched job (e.g. after a worker
	// fault) to the front of consideration.
	Requeue(j *Job)
	// Next removes and returns a job that can start on idle free workers,
	// or nil if none can.
	Next(idle int) *Job
	// Peek returns the next job FIFO/priority-wise without removing it, or
	// nil when empty.
	Peek() *Job
	// Len reports queued jobs.
	Len() int
}

// ---------------------------------------------------------------------------

// FIFOQueue is strict first-in-first-out with head-of-line blocking: if the
// head job does not fit the free workers, nothing runs. This is the paper's
// production policy — MPTC workloads are typically uniform, so the
// simplicity buys dispatch speed.
type FIFOQueue struct {
	// jobs[head:] is the queue, oldest first; jobs[:head] are popped slots,
	// nil so that a popped job is not kept alive, and room for Requeue.
	jobs []*Job
	head int
}

// NewFIFOQueue returns an empty FIFO queue.
func NewFIFOQueue() *FIFOQueue { return &FIFOQueue{} }

// Push implements QueuePolicy. When the array is full and at least half of it
// is popped slots, the queue moves down over them instead of growing, so the
// array stays within a constant factor of the queue and every copy is paid for
// by as many pops.
func (q *FIFOQueue) Push(j *Job) {
	if len(q.jobs) == cap(q.jobs) && q.head > 0 && q.head >= len(q.jobs)/2 {
		n := copy(q.jobs, q.jobs[q.head:])
		clear(q.jobs[n:])
		q.jobs, q.head = q.jobs[:n], 0
	}
	q.jobs = append(q.jobs, j)
}

// Requeue implements QueuePolicy. The slot in front of the head is free
// whenever a job was popped since Push last moved the queue, so a retry storm
// into a deep queue costs a store per job, not a copy of the queue per job;
// without one, the copy opens room for the next quarter-queue of retries.
func (q *FIFOQueue) Requeue(j *Job) {
	if q.head == 0 {
		room := len(q.jobs)/4 + 16
		moved := make([]*Job, room+len(q.jobs), room+2*len(q.jobs))
		copy(moved[room:], q.jobs)
		q.jobs, q.head = moved, room
	}
	q.head--
	q.jobs[q.head] = j
}

// Next implements QueuePolicy.
func (q *FIFOQueue) Next(idle int) *Job {
	if q.head == len(q.jobs) || q.jobs[q.head].Procs() > idle {
		return nil
	}
	j := q.jobs[q.head]
	q.jobs[q.head] = nil
	if q.head++; q.head == len(q.jobs) {
		q.jobs, q.head = q.jobs[:0], 0
	}
	return j
}

// Peek implements QueuePolicy.
func (q *FIFOQueue) Peek() *Job {
	if q.head == len(q.jobs) {
		return nil
	}
	return q.jobs[q.head]
}

// Len implements QueuePolicy.
func (q *FIFOQueue) Len() int { return len(q.jobs) - q.head }

// ---------------------------------------------------------------------------

// PriorityQueue orders by (priority desc, submission order asc) and can
// optionally backfill: when the top job does not fit the free workers, a
// lower-priority job that does fit may run instead. This implements the §7
// extension.
type PriorityQueue struct {
	Backfill bool
	jobs     []*Job // maintained sorted
	seq      int
	seqs     map[*Job]int
}

// NewPriorityQueue returns an empty priority queue; backfill selects whether
// smaller jobs may overtake a blocked head job.
func NewPriorityQueue(backfill bool) *PriorityQueue {
	return &PriorityQueue{Backfill: backfill, seqs: make(map[*Job]int)}
}

func (q *PriorityQueue) less(a, b *Job) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return q.seqs[a] < q.seqs[b]
}

func (q *PriorityQueue) insert(j *Job) {
	i := sort.Search(len(q.jobs), func(i int) bool { return q.less(j, q.jobs[i]) })
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
}

// Push implements QueuePolicy.
func (q *PriorityQueue) Push(j *Job) {
	q.seq++
	q.seqs[j] = q.seq
	q.insert(j)
}

// Requeue implements QueuePolicy: the job keeps its original submission
// order so a retried job re-enters ahead of later submissions of equal
// priority.
func (q *PriorityQueue) Requeue(j *Job) {
	if _, ok := q.seqs[j]; !ok {
		q.seq++
		q.seqs[j] = -q.seq // ahead of everything submitted so far
	}
	q.insert(j)
}

// Next implements QueuePolicy.
func (q *PriorityQueue) Next(idle int) *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	limit := 1
	if q.Backfill {
		limit = len(q.jobs)
	}
	for i := 0; i < limit; i++ {
		if q.jobs[i].Procs() <= idle {
			j := q.jobs[i]
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			delete(q.seqs, j)
			return j
		}
	}
	return nil
}

// Peek implements QueuePolicy.
func (q *PriorityQueue) Peek() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

// Len implements QueuePolicy.
func (q *PriorityQueue) Len() int { return len(q.jobs) }

// ---------------------------------------------------------------------------

// GroupPolicy selects which n idle workers form an MPI job's group, given
// the interconnect coordinates of each idle worker (nil for workers that
// did not report coordinates), longest-idle first. It appends n distinct
// indexes into coords to dst and returns the extended slice; the dispatcher
// passes scratch space, so a policy that needs no other memory selects a
// group without allocating.
//
// The paper's default is first-come-first-served; topology-aware grouping
// is listed as future work (§7) and implemented here as an extension.
type GroupPolicy func(dst []int, coords [][]int, n int) []int

// FirstComeFirstServed picks the n longest-idle workers — the paper's
// default behavior ("group nodes in first come, first served order").
func FirstComeFirstServed(dst []int, coords [][]int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// TopologyAware greedily grows a group with minimal total Manhattan distance
// on the interconnect: seed with the longest-idle worker, then repeatedly
// add the idle worker closest to the current group. Workers without
// coordinates are treated as maximally distant.
func TopologyAware(dst []int, coords [][]int, n int) []int {
	if n <= 0 {
		return dst
	}
	base := len(dst)
	dst = append(dst, 0)
	for len(dst)-base < n {
		chosen := dst[base:]
		best, bestDist := -1, int(^uint(0)>>1)
		for i := range coords {
			if slices.Contains(chosen, i) {
				continue
			}
			d := 0
			for _, c := range chosen {
				d += manhattan(coords[i], coords[c])
			}
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		dst = append(dst, best)
	}
	return dst
}

// manhattan returns the L1 distance between coordinate vectors; missing or
// mismatched coordinates count as a large penalty so ungrouped workers are
// chosen last.
func manhattan(a, b []int) int {
	const penalty = 1 << 20
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return penalty
	}
	d := 0
	for i := range a {
		x := a[i] - b[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d
}
