package dispatch

// fifo is a shard's job queue: strict first-in-first-out with head-of-line
// blocking, so if the head job does not fit the free workers, nothing runs.
// This is the paper's one queue policy (§4) — MPTC workloads are typically
// uniform, so the simplicity buys dispatch speed.
type fifo struct {
	// jobs[head:] is the queue, oldest first; jobs[:head] are popped slots,
	// nil so that a popped job is not kept alive, and room for Requeue.
	jobs []*Job
	head int
}

// Push appends a newly submitted job. When the array is full and at least
// half of it is popped slots, the queue moves down over them instead of
// growing, so the array stays within a constant factor of the queue and every
// copy is paid for by as many pops.
func (q *fifo) Push(j *Job) {
	if len(q.jobs) == cap(q.jobs) && q.head > 0 && q.head >= len(q.jobs)/2 {
		n := copy(q.jobs, q.jobs[q.head:])
		clear(q.jobs[n:])
		q.jobs, q.head = q.jobs[:n], 0
	}
	q.jobs = append(q.jobs, j)
}

// Requeue returns a previously dispatched job (e.g. after a worker fault) to
// the front of the queue. The slot in front of the head is free whenever a
// job was popped since Push last moved the queue, so a retry storm into a
// deep queue costs a store per job, not a copy of the queue per job; without
// one, the copy opens room for the next quarter-queue of retries.
func (q *fifo) Requeue(j *Job) {
	if q.head == 0 {
		room := len(q.jobs)/4 + 16
		moved := make([]*Job, room+len(q.jobs), room+2*len(q.jobs))
		copy(moved[room:], q.jobs)
		q.jobs, q.head = moved, room
	}
	q.head--
	q.jobs[q.head] = j
}

// Next removes and returns the head job if it can start on idle free
// workers, or nil if it cannot or the queue is empty.
func (q *fifo) Next(idle int) *Job {
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

// Peek returns the head job without removing it, or nil when empty.
func (q *fifo) Peek() *Job {
	if q.head == len(q.jobs) {
		return nil
	}
	return q.jobs[q.head]
}

// Len reports queued jobs.
func (q *fifo) Len() int { return len(q.jobs) - q.head }
