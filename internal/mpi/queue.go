package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrCommClosed is returned by operations on a finalized communicator.
var ErrCommClosed = errors.New("mpi: communicator closed")

// ErrPeerClosed is returned by a receive from a specific rank that has closed
// its communicator (or died) with no matching message left to deliver. A tree
// collective's inner ranks only receive while they gather, so this is how a
// lost rank fails its job instead of hanging it.
var ErrPeerClosed = errors.New("mpi: peer closed its communicator")

// Message is one received point-to-point message.
type Message struct {
	Src  int
	Tag  int
	Data []byte
}

// matchQueue is the unexpected-message queue of one process: incoming
// messages are pushed by transport readers and popped by Recv with
// (source, tag) matching, preserving per-(src,tag) FIFO order as MPI
// requires.
type matchQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []Message
	gone   []int // ranks whose stream to this process has ended (peerGone)
	closed bool
}

func newMatchQueue() *matchQueue {
	q := &matchQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *matchQueue) push(m Message) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.msgs = append(q.msgs, m)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func matches(m Message, src, tag int) bool {
	return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
}

// peerGone records that nothing more can arrive from src and wakes receivers
// waiting on it.
func (q *matchQueue) peerGone(src int) {
	q.mu.Lock()
	if !slices.Contains(q.gone, src) {
		q.gone = append(q.gone, src)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks until a message matching (src, tag) is available and removes
// it. Once the queue is drained of matching messages it returns ErrCommClosed
// if the queue is closed and ErrPeerClosed if src is gone.
func (q *matchQueue) pop(src, tag int) (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for i, m := range q.msgs {
			if matches(m, src, tag) {
				q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
				return m, nil
			}
		}
		if q.closed {
			return Message{}, ErrCommClosed
		}
		if src != AnySource && slices.Contains(q.gone, src) {
			return Message{}, fmt.Errorf("mpi: receive from rank %d: %w", src, ErrPeerClosed)
		}
		q.cond.Wait()
	}
}

func (q *matchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *matchQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}
