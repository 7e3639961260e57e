// Package event is a discrete-event simulation core with virtual time. It
// drives the paper-scale experiments (hundreds to thousands of Blue Gene/P
// nodes, multi-hour workloads) that cannot run as real processes — and,
// since the million-agent scenario work, workloads three orders of magnitude
// past the paper: 10⁶ pilot workers over multi-day virtual horizons.
//
// The engine is a classic event-queue design: callbacks scheduled at virtual
// timestamps, executed in nondecreasing time order, with FIFO tie-breaking
// for equal timestamps. Convenience types provide queueing resources
// (stations with service times) and token pools.
//
// The implementation is tuned for event throughput on large models:
//
//   - The pending-event queue is a flat slice-backed 4-ary min-heap of
//     pointer-free 16-byte keys (timestamp, tie-break sequence, payload
//     reference), with callbacks parked in a freelist arena beside it — no
//     per-event allocation, no interface boxing, no GC write barriers during
//     sift, and half the levels of a binary heap, so a million-entry queue
//     stays cache-friendly.
//   - Handler/arg callbacks (AtCall, Station.RequestCall)
//     let steady-state model code schedule work with zero closure
//     allocations; the fn func() forms remain for cold paths.
//   - Station and Pool wait queues are growable ring buffers, and Station
//     in-service completions run through a freelist of slots instead of a
//     fresh closure per request.
//
// internal/event/legacy preserves the pre-optimization core; the
// differential tests in this package pin execution order (including FIFO
// tie-breaking) against it.
package event

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Handler is the allocation-free callback form: the simulator invokes
// Fire(arg) when the event executes. Model types implement Handler once and
// pass themselves with an integer argument (a worker index, a job slot)
// instead of allocating a closure per scheduled event.
type Handler interface {
	Fire(arg int)
}

// eventKey is one scheduled event's heap entry: timestamp plus the FIFO
// tie-break sequence and payload-arena reference packed into one word
// (seq<<refBits | ref). Packing keeps keys pointer-free and 16 bytes, so a
// 4-ary node's four children fill exactly one cache line and sift operations
// move small scalars with no GC write barriers. Comparing the packed word
// compares seq first (high bits); sequences are unique, so the ref bits never
// influence ordering.
type eventKey struct {
	at time.Duration
	sr uint64
}

// refBits bounds concurrently pending events to 2^26 (67M — a 10⁶-worker
// model keeps a few million in flight) and total events per run to 2^38.
const refBits = 26

func (k eventKey) ref() int32 { return int32(k.sr & (1<<refBits - 1)) }

// payload is an event's callback, held in a freelist arena beside the heap.
// Exactly one of fn and h is set; next links free slots.
type payload struct {
	fn   func()
	h    Handler
	arg  int
	next int32
}

// minCalBuckets/maxCalBuckets bound the calendar window's bucket count,
// which tracks the pending-event population (power of two) so occupancy
// stays at a few events per bucket from paper-scale runs to million-worker
// sweeps. The window spans nbuckets x width, with width adapted each epoch.
const (
	minCalBuckets = 256
	maxCalBuckets = 1 << 20
)

// Sim is one simulation instance. It is not safe for concurrent use: all
// model code runs inside event callbacks on a single goroutine.
//
// The pending queue is two-tier. A calendar window of calBuckets buckets
// holds near-horizon events: scheduling appends to a bucket unsorted in
// O(1), and each bucket is sorted once when the clock reaches it. Events
// beyond the window go to the 4-ary far heap and migrate into the calendar
// at epoch changes. Short-delay events — the bulk of a scheduling model's
// traffic — therefore never pay a log(pending) heap walk.
type Sim struct {
	now    time.Duration
	heap   []eventKey // far tier: events beyond the calendar window
	pay    []payload
	free   int32 // head of payload freelist, -1 when empty
	seq    uint64
	rng    *rand.Rand
	events uint64
	npend  int

	// Calendar window state (valid while calActive).
	calActive bool
	base      time.Duration // window start
	width     time.Duration // bucket width
	curBucket int           // bucket currently draining
	cur       []eventKey    // sorted contents of curBucket
	curIdx    int           // drain position in cur
	buckets   [][]eventKey
	// nearCnt/farCnt classify enqueues while the window is active (landed in
	// window vs overflowed to the heap); refill adapts width from the ratio.
	nearCnt, farCnt int
	// maxPend is the high-water pending count since the last refill: the
	// bucket array is sized from it (with hysteresis), not from the pending
	// count at refill time, which is only the inter-epoch overflow.
	maxPend int
}

// New creates a simulator with a deterministic random source.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), free: -1, width: 64 * time.Microsecond}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Events reports how many events have executed.
func (s *Sim) Events() uint64 { return s.events }

// Pending reports how many events are queued.
func (s *Sim) Pending() int { return s.npend }

// keyLess orders keys by (timestamp, sequence). It is written without
// short-circuit control flow so the compiler lowers it to flag materialization
// and conditional moves: heap sift compares are data-dependent coin flips, and
// a branchy compare pays a misprediction on nearly every level.
func keyLess(a, b *eventKey) bool {
	lt := a.at < b.at
	eq := a.at == b.at
	sl := a.sr < b.sr
	return lt || (eq && sl)
}

// alloc stores a callback in the payload arena and returns its reference.
func (s *Sim) alloc(fn func(), h Handler, arg int) int32 {
	ref := s.free
	if ref < 0 {
		if len(s.pay) >= 1<<refBits {
			panic("event: too many pending events")
		}
		s.pay = append(s.pay, payload{fn: fn, h: h, arg: arg})
		return int32(len(s.pay) - 1)
	}
	s.free = s.pay[ref].next
	s.pay[ref] = payload{fn: fn, h: h, arg: arg}
	return ref
}

// key builds the next event key for the given payload reference.
func (s *Sim) key(at time.Duration, ref int32) eventKey {
	s.seq++
	if s.seq >= 1<<(64-refBits) {
		panic("event: sequence number overflow")
	}
	return eventKey{at: at, sr: s.seq<<refBits | uint64(ref)}
}

// heapPush inserts a key into the far heap, sifting up through the 4-ary
// heap with a hole (parents are copied down once instead of swapped).
func (s *Sim) heapPush(e eventKey) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// heapPop removes and returns the far heap's minimum key.
func (s *Sim) heapPop() eventKey {
	h := s.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	s.heap = h
	if n > 0 {
		siftDown(h, 0)
	}
	return root
}

// enqueue routes a key to the calendar window (near events) or the far heap.
func (s *Sim) enqueue(e eventKey) {
	s.npend++
	if s.npend > s.maxPend {
		s.maxPend = s.npend
	}
	if s.calActive {
		idx := int64(e.at-s.base) / int64(s.width)
		if idx < int64(len(s.buckets)) {
			s.nearCnt++
			// An index at or before the draining bucket (including negative
			// ones, for events landing before the window base) sorts into the
			// live drain slice; later buckets stay unsorted until reached.
			if idx > int64(s.curBucket) {
				s.buckets[idx] = append(s.buckets[idx], e)
			} else {
				s.curInsert(e)
			}
			return
		}
		s.farCnt++
	}
	s.heapPush(e)
}

// curInsert places e into the sorted undrained tail of the current bucket.
func (s *Sim) curInsert(e eventKey) {
	lo, hi := s.curIdx, len(s.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(&s.cur[mid], &e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.cur = append(s.cur, eventKey{})
	copy(s.cur[lo+1:], s.cur[lo:])
	s.cur[lo] = e
}

// sortKeys orders a bucket by (timestamp, sequence): insertion sort for the
// common few-event bucket, the generic sort when adaptation transients leave
// a bucket overfull (insertion sort would go quadratic there).
func sortKeys(keys []eventKey) {
	if len(keys) > 32 {
		slices.SortFunc(keys, func(a, b eventKey) int {
			if keyLess(&a, &b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(keys); i++ {
		e := keys[i]
		j := i - 1
		for j >= 0 && keyLess(&e, &keys[j]) {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = e
	}
}

// advance makes the next pending event the head of cur, rotating through
// calendar buckets and refilling from the far heap at epoch boundaries. The
// caller guarantees npend > 0.
func (s *Sim) advance() {
	for {
		if s.curIdx < len(s.cur) {
			return
		}
		if s.calActive {
			b := s.curBucket + 1
			for b < len(s.buckets) && len(s.buckets[b]) == 0 {
				b++
			}
			if b < len(s.buckets) {
				s.curBucket = b
				s.cur, s.buckets[b] = s.buckets[b], s.cur[:0]
				s.curIdx = 0
				if len(s.cur) > 64 && s.width > 1 && s.retune() {
					continue
				}
				sortKeys(s.cur)
				continue
			}
			s.calActive = false
		}
		s.refill()
	}
}

// retune reacts to an overfull bucket — the width guess was too coarse for
// the event density, which would make drains quadratic — by recomputing the
// width from the observed density and dumping the calendar back into the far
// heap (linear append + heapify) for an immediate refill at the right
// resolution. Returns false for an untunable tie cluster (the bucket spans
// almost no time), which is drained as-is instead.
func (s *Sim) retune() bool {
	lo, hi := s.cur[0].at, s.cur[0].at
	for _, e := range s.cur[1:] {
		lt := e.at < lo
		gt := e.at > hi
		if lt {
			lo = e.at
		}
		if gt {
			hi = e.at
		}
	}
	if hi-lo < time.Duration(len(s.cur)/64) {
		return false
	}
	// Target a few events per bucket at the density this bucket revealed.
	w := (hi - lo) * 4 / time.Duration(len(s.cur))
	if w <= 0 {
		w = 1
	}
	if w >= s.width {
		w = s.width / 2
	}
	s.width = w
	h := s.heap
	h = append(h, s.cur...)
	s.cur = s.cur[:0]
	for b := s.curBucket + 1; b < len(s.buckets); b++ {
		h = append(h, s.buckets[b]...)
		s.buckets[b] = s.buckets[b][:0]
	}
	s.heap = h
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		siftDown(h, i)
	}
	s.calActive = false
	s.nearCnt, s.farCnt = 0, 0
	return true
}

// refill opens a new calendar epoch at the far heap's minimum: it sizes the
// bucket array to the pending population, adapts the bucket width toward a
// few events per bucket, and migrates every in-window event out of the heap
// with one linear partition pass (re-heapifying the remainder) instead of
// log-cost pops.
func (s *Sim) refill() {
	want := minCalBuckets
	for want < s.maxPend && want < maxCalBuckets {
		want <<= 1
	}
	s.maxPend = s.npend
	// Hysteresis: resizing discards every bucket's accumulated capacity, so
	// only grow, or shrink once the population falls well below the array.
	if want > len(s.buckets) || want < len(s.buckets)/4 {
		s.buckets = make([][]eventKey, want)
	}
	nb := len(s.buckets)
	// Adapt width so the window catches most scheduling delays: grow while
	// more than a fifth of in-epoch enqueues overflow to the heap, shrink
	// when nearly none do (occupancy then drifts toward ~1 per bucket, since
	// the bucket count tracks the pending population). Outlier far-future
	// events stay in the heap, which is exactly what the far tier is for.
	if tot := s.nearCnt + s.farCnt; tot > 64 {
		if s.farCnt > tot/5 {
			if s.width < 1<<40 {
				s.width *= 2
			}
		} else if s.farCnt < tot/50 {
			s.width /= 2
			if s.width <= 0 {
				s.width = 1
			}
		}
	}
	s.nearCnt, s.farCnt = 0, 0
	s.base = s.heap[0].at
	s.curBucket = -1
	s.cur = s.cur[:0]
	s.curIdx = 0
	horizon := s.base + s.width*time.Duration(nb)
	if horizon < s.base { // overflow far beyond any model horizon
		horizon = 1<<63 - 1
	}
	keep := s.heap[:0]
	for _, e := range s.heap {
		if e.at < horizon {
			idx := int64(e.at-s.base) / int64(s.width)
			s.buckets[idx] = append(s.buckets[idx], e)
		} else {
			keep = append(keep, e)
		}
	}
	s.heap = keep
	for i := (len(keep) - 2) >> 2; i >= 0; i-- {
		siftDown(keep, i)
	}
	s.calActive = true
}

// siftDown restores the 4-ary heap property at index i.
func siftDown(h []eventKey, i int) {
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if keyLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !keyLess(&h[m], &e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// next removes and returns the minimum pending key; the caller guarantees
// npend > 0.
func (s *Sim) next() eventKey {
	if s.curIdx >= len(s.cur) {
		s.advance()
	}
	e := s.cur[s.curIdx]
	s.curIdx++
	s.npend--
	return e
}

// peekAt reports the minimum pending timestamp; the caller guarantees
// npend > 0. It may rotate the calendar cursor but executes nothing.
func (s *Sim) peekAt() time.Duration {
	if s.curIdx >= len(s.cur) {
		s.advance()
	}
	return s.cur[s.curIdx].at
}

// fire releases the popped key's payload slot and invokes its callback. The
// slot is freed before the callback runs, so callbacks scheduling new events
// reuse it immediately.
func (s *Sim) fire(ref int32) {
	p := &s.pay[ref]
	fn, h, arg := p.fn, p.h, p.arg
	p.fn, p.h = nil, nil
	p.next = s.free
	s.free = ref
	if h != nil {
		h.Fire(arg)
	} else {
		fn()
	}
}

// At schedules fn to run at absolute virtual time t; scheduling in the past
// panics, as that is always a model bug.
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	s.enqueue(s.key(t, s.alloc(fn, nil, 0)))
}

// AtCall schedules h.Fire(arg) at absolute virtual time t without allocating
// a closure; scheduling in the past panics.
func (s *Sim) AtCall(t time.Duration, h Handler, arg int) {
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	s.enqueue(s.key(t, s.alloc(nil, h, arg)))
}

// After schedules fn to run d from now; negative d panics.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// AfterCall schedules h.Fire(arg) to run d from now; negative d panics.
func (s *Sim) AfterCall(d time.Duration, h Handler, arg int) {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	s.AtCall(s.now+d, h, arg)
}

// Run executes events until the queue empties or the limit of executed
// events is reached (0 = no limit). It returns the number executed.
func (s *Sim) Run(limit uint64) uint64 {
	var n uint64
	for s.npend > 0 {
		if limit > 0 && n >= limit {
			break
		}
		e := s.next()
		s.now = e.at
		s.events++
		n++
		s.fire(e.ref())
	}
	return n
}

// RunUntil executes events with timestamps <= deadline; later events remain
// queued and the clock advances to exactly deadline.
func (s *Sim) RunUntil(deadline time.Duration) {
	for s.npend > 0 && s.peekAt() <= deadline {
		e := s.next()
		s.now = e.at
		s.events++
		s.fire(e.ref())
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ---------------------------------------------------------------------------

// Ring is a growable FIFO ring buffer. The zero value is ready to use. It
// replaces the append-and-reslice queue idiom, which leaks capacity at the
// head and copies on growth, with O(1) amortized push/pop and stable memory.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element; it panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("event: pop of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns a pointer to the head element without removing it; it panics
// on an empty ring. The pointer is invalidated by the next Push or Pop.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("event: front of empty ring")
	}
	return &r.buf[r.head]
}

// grow doubles capacity (power of two, so indexing stays a mask) and
// linearizes the live elements to the front.
func (r *Ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// ---------------------------------------------------------------------------

// Station is a first-come-first-served queueing resource with c servers and
// a per-request service time: the model of the central JETS dispatcher (one
// server, per-message service cost) and of filesystem metadata servers.
type Station struct {
	sim     *Sim
	servers int
	busy    int
	queue   Ring[stationReq]
	// slots holds in-service completions on a freelist so a request in
	// service costs no allocation; free links the free slots.
	slots []stationSlot
	free  int

	requested uint64
	served    uint64

	// Busy time accounting for utilization reporting.
	busyTime   time.Duration
	lastChange time.Duration

	// MaxQueue tracks the high-water mark of the wait queue.
	MaxQueue int
}

type stationReq struct {
	service time.Duration
	done    func()
	h       Handler
	arg     int
}

type stationSlot struct {
	done func()
	h    Handler
	arg  int
	next int
}

// NewStation creates a station with the given server count.
func NewStation(sim *Sim, servers int) *Station {
	if servers <= 0 {
		panic("event: station needs at least one server")
	}
	return &Station{sim: sim, servers: servers, free: -1}
}

// Request enqueues work needing the given service time; done runs when the
// service completes.
func (st *Station) Request(service time.Duration, done func()) {
	st.request(stationReq{service: service, done: done})
}

// RequestCall is Request with a Handler/arg completion instead of a closure.
func (st *Station) RequestCall(service time.Duration, h Handler, arg int) {
	st.request(stationReq{service: service, h: h, arg: arg})
}

func (st *Station) request(r stationReq) {
	if r.service < 0 {
		panic("event: negative service time")
	}
	st.requested++
	if st.busy < st.servers {
		st.start(r)
		return
	}
	st.queue.Push(r)
	if st.queue.Len() > st.MaxQueue {
		st.MaxQueue = st.queue.Len()
	}
}

func (st *Station) start(r stationReq) {
	st.account()
	st.busy++
	slot := st.free
	if slot < 0 {
		st.slots = append(st.slots, stationSlot{})
		slot = len(st.slots) - 1
	} else {
		st.free = st.slots[slot].next
	}
	st.slots[slot] = stationSlot{done: r.done, h: r.h, arg: r.arg, next: -1}
	st.sim.AfterCall(r.service, st, slot)
}

// Fire completes the service occupying the given slot: accounting, freeing
// the server (starting the next queued request, as the legacy core did,
// before the completion callback runs), then the callback.
func (st *Station) Fire(slot int) {
	sl := &st.slots[slot]
	done, h, arg := sl.done, sl.h, sl.arg
	sl.done, sl.h = nil, nil
	sl.next = st.free
	st.free = slot
	st.account()
	st.busy--
	st.served++
	if st.queue.Len() > 0 {
		st.start(st.queue.Pop())
	}
	if done != nil {
		done()
	} else if h != nil {
		h.Fire(arg)
	}
}

// account accumulates busy time in server-weighted units (dt x busy servers);
// BusyTime divides by the server count on read, keeping integer division out
// of the twice-per-service hot path.
func (st *Station) account() {
	dt := st.sim.Now() - st.lastChange
	st.busyTime += dt * time.Duration(st.busy)
	st.lastChange = st.sim.Now()
}

// BusyTime returns accumulated normalized busy time (virtual seconds a
// fully-busy station would accumulate).
func (st *Station) BusyTime() time.Duration {
	st.account()
	return st.busyTime / time.Duration(st.servers)
}

// QueueLen reports requests waiting (not in service).
func (st *Station) QueueLen() int { return st.queue.Len() }

// InService reports requests currently being served.
func (st *Station) InService() int { return st.busy }

// Requested reports requests ever enqueued (the conservation invariant is
// Requested == Served + QueueLen + InService at every instant).
func (st *Station) Requested() uint64 { return st.requested }

// Served reports completed services.
func (st *Station) Served() uint64 { return st.served }

// ---------------------------------------------------------------------------

// Pool is a counting-token resource: acquire blocks (queues) until a token
// frees. It models bounded resources like worker slots.
type Pool struct {
	tokens  int
	waiters Ring[func()]
}

// NewPool creates a pool with n tokens.
func NewPool(sim *Sim, n int) *Pool {
	if n < 0 {
		panic("event: negative pool size")
	}
	_ = sim // kept for API symmetry with NewStation
	return &Pool{tokens: n}
}

// Acquire runs fn (immediately, this event) once a token is available.
func (p *Pool) Acquire(fn func()) {
	if p.tokens > 0 {
		p.tokens--
		fn()
		return
	}
	p.waiters.Push(fn)
}

// Release returns a token, handing it to the oldest waiter if any.
func (p *Pool) Release() {
	if p.waiters.Len() > 0 {
		p.waiters.Pop()()
		return
	}
	p.tokens++
}

// Available reports free tokens.
func (p *Pool) Available() int { return p.tokens }

// Waiting reports queued acquirers.
func (p *Pool) Waiting() int { return p.waiters.Len() }
