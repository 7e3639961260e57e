package proto

import "sync"

// Outbox is the outbound queue of one connection, and the only thing that
// queues frames for one: each of a dispatcher's worker links writes through
// one. At most one goroutine writes to the codec at a time, the one that set
// writing, and no connection keeps a writer goroutine while it is idle.
//
//   - Push appends a frame without blocking. If nobody is writing, the push
//     starts a drain goroutine, which writes the queue in FIFO order, one
//     flush per batch it takes, and exits once the queue is empty. A peer
//     that stops reading stalls only that goroutine.
//   - SendOrPush writes a frame on the calling goroutine when the outbox is
//     idle, and appends it otherwise. Frames pushed while it writes go to a
//     drain goroutine afterwards: the caller never writes a frame queued
//     behind its own, to a peer that may have stopped reading.
//
// A failed write closes the connection, and the frames behind it are
// dropped unwritten. Closing the connection is also how an owner frees a
// drain goroutine blocked on a peer that stopped reading; it never waits for
// one.
type Outbox struct {
	codec *Codec
	limit int // most frames queued at once

	// mu is a leaf lock, never held across a write. q is non-empty only
	// while writing is set.
	mu      sync.Mutex
	q       []*Envelope
	writing bool
	closed  bool
}

// NewOutbox returns an outbox writing to c that holds at most limit frames.
func NewOutbox(c *Codec, limit int) *Outbox {
	return &Outbox{codec: c, limit: limit}
}

// Push appends e without blocking and starts a drain goroutine if nobody is
// writing. It reports false when the outbox is closed or full.
func (o *Outbox) Push(e *Envelope) bool {
	o.mu.Lock()
	ok := o.appendLocked(e)
	start := ok && !o.writing
	if start {
		o.writing = true
	}
	o.mu.Unlock()
	if start {
		go o.drain()
	}
	return ok
}

// appendLocked adds e unless the outbox is closed or full. Caller holds
// o.mu.
func (o *Outbox) appendLocked(e *Envelope) bool {
	if o.closed || len(o.q) >= o.limit {
		return false
	}
	o.q = append(o.q, e)
	return true
}

// SendOrPush hands e to the connection: written and flushed on the calling
// goroutine when the outbox is idle, appended behind the frames already
// queued otherwise. It reports false when the outbox is closed or full.
func (o *Outbox) SendOrPush(e *Envelope) bool {
	o.mu.Lock()
	if o.writing || o.closed {
		// The goroutine that set writing drains the frame.
		ok := o.appendLocked(e)
		o.mu.Unlock()
		return ok
	}
	o.writing = true
	o.mu.Unlock()
	if err := o.codec.Send(e); err != nil {
		o.codec.Close()
	}
	o.mu.Lock()
	handoff := len(o.q) > 0
	o.writing = handoff
	o.mu.Unlock()
	if handoff {
		go o.drain()
	}
	return true
}

// Close makes the outbox refuse every later frame. Frames already queued
// are still drained, or dropped if the connection is gone.
func (o *Outbox) Close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
}

// Len reports how many frames wait to be written.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.q)
}

// drain writes the queue in FIFO order until it is empty, one flush per
// batch it takes, then gives up the write side. A failed write closes the
// connection; the frames behind it are dropped unwritten.
func (o *Outbox) drain() {
	var err error
	o.mu.Lock()
	for len(o.q) > 0 {
		batch := o.q
		o.q = nil
		o.mu.Unlock()
		for _, e := range batch {
			if err != nil {
				break
			}
			err = o.codec.SendBuffered(e)
		}
		if err == nil {
			err = o.codec.Flush()
		}
		if err != nil {
			o.codec.Close()
		}
		clear(batch)
		o.mu.Lock()
		if o.q == nil {
			o.q = batch[:0] // nothing arrived meanwhile: keep the storage
		}
	}
	o.writing = false
	o.mu.Unlock()
}
