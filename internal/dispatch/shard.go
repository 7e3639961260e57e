package dispatch

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// The dispatcher's scheduling state — the idle-worker set and the job queue —
// is split into N shards, each guarded by its own mutex, so that park,
// Submit, and the scheduling pass stop serializing on one lock at high worker
// counts (the scheduler-centric bottleneck pilot-job characterizations
// identify as the limiting component at scale).
//
// Workers are keyed to a shard by their interconnect coordinate plane (the
// first coordinate), so that topologically close workers share a shard, and
// a group seated on the single-shard fast path is drawn from one plane.
// Workers without coordinates fall back to a hash of their worker ID.
//
// Jobs are pushed to the shard with the most idle workers (round-robin when
// the pool is saturated). Observable FIFO order does not depend on placement:
// every job carries a per-submit sequence number, and the scheduling pass
// always launches the lowest-sequence queued job, stealing it across shards
// when it sits in a different shard than the idle workers (steal.go).
//
// Lock order: shard mutexes strictly in ascending shard index, then
// Dispatcher.mu. Code holding Dispatcher.mu must never acquire a shard mutex.

// noJob is the headSeq sentinel for an empty shard queue.
const noJob = int64(math.MaxInt64)

// shard is one slice of the scheduling state.
type shard struct {
	idx int

	mu    sync.Mutex
	idle  idleSet
	queue fifo

	// The cold tail (spill.go): jobs past the hot-window bound, FIFO by
	// submission. Invariant: once cold is non-empty every new push goes
	// cold, so within a shard all cold seqs exceed all hot pushed seqs
	// (requeued retries go hot at the front regardless — they are old by
	// definition and bounded by in-flight work, not backlog). refill holds
	// the batch an in-flight rehydration pass has claimed: out of cold, not
	// yet pushed hot, but still counted queued.
	cold         []*liveJob
	refill       []*liveJob
	refillActive bool

	// Advisory mirrors of the locked state, maintained under mu and read
	// lock-free by the scheduling pass and the stats accessors. headSeq and
	// headProcs mirror only the hot window: a shard whose hot queue drained
	// while the cold tail waits on a refill looks empty to the advisory
	// scan until the refill lands and reschedules.
	headSeq   atomic.Int64 // submit seq of queue.Peek(), noJob when empty
	headProcs atomic.Int64 // Procs() of queue.Peek(), 0 when empty
	nIdle     atomic.Int64 // idle.Len()
	qlen      atomic.Int64 // hot + cold + mid-refill depth
	coldN     atomic.Int64 // cold + mid-refill depth
}

func newShards(n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{idx: i}
		shards[i].headSeq.Store(noJob)
	}
	return shards
}

// DefaultShards derives the shard count from GOMAXPROCS: the largest power
// of two not exceeding it, capped at 16. A power of two spreads coordinate
// planes evenly; the cap bounds the ordered multi-lock taken by cross-shard
// group assembly.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	s := 1
	for s*2 <= n {
		s *= 2
	}
	return s
}

// refreshHead re-derives the advisory mirrors after a queue mutation.
// Caller holds s.mu.
func (s *shard) refreshHead() {
	if j := s.queue.Peek(); j != nil {
		s.headSeq.Store(j.seq)
		s.headProcs.Store(int64(j.Procs()))
	} else {
		s.headSeq.Store(noJob)
		s.headProcs.Store(0)
	}
	cold := len(s.cold) + len(s.refill)
	s.qlen.Store(int64(s.queue.Len() + cold))
	s.coldN.Store(int64(cold))
}

// addIdle parks a worker. Caller holds s.mu.
func (s *shard) addIdle(wc *workerConn) bool {
	if !s.idle.Add(wc) {
		return false
	}
	s.nIdle.Store(int64(s.idle.Len()))
	return true
}

// removeIdle unparks a worker. Caller holds s.mu.
func (s *shard) removeIdle(wc *workerConn) bool {
	if !s.idle.Remove(wc) {
		return false
	}
	s.nIdle.Store(int64(s.idle.Len()))
	return true
}

// takeIdle unparks the shard's idle workers, longest-idle first, binding them
// to ranks[i:] until either runs out, and returns the next unbound rank.
// Caller holds s.mu.
func (s *shard) takeIdle(ranks []rank, i int) int {
	for ; i < len(ranks) && s.idle.head != nil; i++ {
		wc := s.idle.head
		s.removeIdle(wc)
		ranks[i].wc = wc
	}
	return i
}

// push appends a submitted job. Caller holds s.mu.
func (s *shard) push(j *Job) {
	s.queue.Push(j)
	s.refreshHead()
}

// requeueJob returns a faulted job to the front of consideration; the job
// keeps its original submit sequence, so the steal arbitration schedules it
// before anything submitted later. Caller holds s.mu.
func (s *shard) requeueJob(j *Job) {
	s.queue.Requeue(j)
	s.refreshHead()
}

// shardFor maps a registered worker to its home shard: coordinate plane
// when the worker reported interconnect coordinates, hash of the worker ID
// otherwise.
func (d *Dispatcher) shardFor(wc *workerConn) *shard {
	n := len(d.shards)
	if n == 1 {
		return d.shards[0]
	}
	if len(wc.reg.Coord) > 0 {
		p := wc.reg.Coord[0] % n
		if p < 0 {
			p += n
		}
		return d.shards[p]
	}
	return d.shards[int(fnv32(wc.id)%uint32(n))]
}

// fnv32 is the FNV-1a hash, the worker-ID fallback shard key.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// lockAll acquires every shard mutex in ascending index order (the global
// lock order that makes cross-shard group assembly deadlock-free).
func (d *Dispatcher) lockAll() {
	for _, s := range d.shards {
		s.mu.Lock()
	}
}

// unlockAll releases every shard mutex.
func (d *Dispatcher) unlockAll() {
	for _, s := range d.shards {
		s.mu.Unlock()
	}
}

// queuedCount sums the advisory queue lengths (exact once shard mutations
// quiesce).
func (d *Dispatcher) queuedCount() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.qlen.Load()
	}
	return int(n)
}

// idleCount sums the advisory idle counts.
func (d *Dispatcher) idleCount() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.nIdle.Load()
	}
	return int(n)
}
