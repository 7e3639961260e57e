package dispatch

// idleSet tracks parked workers (those holding no task) in
// the order they parked. It is an intrusive doubly linked list through the
// workers' own idlePrev/idleNext fields: membership, add and remove are O(1)
// and allocate nothing, and a walk from head visits the longest-idle worker
// first. That order is what GroupPolicy's index 0 means — the paper's
// "first come, first served" grouping and TopologyAware's seed — and it is
// the FIFO idle pool internal/simjets models.
//
// Not safe for concurrent use; every method is called under the owning
// shard's mutex.
type idleSet struct {
	head, tail *workerConn
	n          int
}

func (s *idleSet) Len() int { return s.n }

// Contains reports membership.
func (s *idleSet) Contains(wc *workerConn) bool { return wc.idleIn == s }

// Add parks a worker at the tail; it reports false if the worker was
// already parked.
func (s *idleSet) Add(wc *workerConn) bool {
	if wc.idleIn != nil {
		return false
	}
	wc.idleIn, wc.idlePrev, wc.idleNext = s, s.tail, nil
	if s.tail != nil {
		s.tail.idleNext = wc
	} else {
		s.head = wc
	}
	s.tail = wc
	s.n++
	return true
}

// Remove unparks a worker, keeping the others in arrival order.
func (s *idleSet) Remove(wc *workerConn) bool {
	if wc.idleIn != s {
		return false
	}
	if wc.idlePrev != nil {
		wc.idlePrev.idleNext = wc.idleNext
	} else {
		s.head = wc.idleNext
	}
	if wc.idleNext != nil {
		wc.idleNext.idlePrev = wc.idlePrev
	} else {
		s.tail = wc.idlePrev
	}
	wc.idleIn, wc.idlePrev, wc.idleNext = nil, nil, nil
	s.n--
	return true
}

// appendTo appends the parked workers to dst, longest-idle first.
func (s *idleSet) appendTo(dst []*workerConn) []*workerConn {
	for wc := s.head; wc != nil; wc = wc.idleNext {
		dst = append(dst, wc)
	}
	return dst
}
