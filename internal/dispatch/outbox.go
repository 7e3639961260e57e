package dispatch

import "jets/internal/proto"

// A worker's outbound path. Every frame for a worker passes through its
// outbox, and at most one goroutine writes to the connection at a time: the
// one that set writing. There is no writer goroutine per worker.
//
//   - A task is written by the goroutine that seats it (sendTask), inline,
//     when the outbox is empty and nobody is writing. The credit rule makes
//     that safe: a task only ever goes to a parked worker, which is blocked
//     in Recv, and one task frame fits any pipe or socket buffer. The one
//     wait this allows: over TCP, the write can wait for a parked worker to
//     read stage bytes already in its socket buffer.
//   - Everything else — registered, the stage replay, a stage fan-out,
//     shutdown — is appended (enqueue). If nobody is writing, the push
//     starts a drain goroutine, which exits once the outbox is empty, so a
//     peer that stops reading stalls only that goroutine.
//
// Frames that arrive while a task is being written inline are handed to a
// drain goroutine afterwards: the seating goroutine never writes a frame
// behind its own task, to a worker that is now busy and may not be reading.

// enqueue appends a frame to the worker's outbox without blocking. It
// reports false when the worker is gone or its outbox is full.
func (wc *workerConn) enqueue(e *proto.Envelope) bool {
	return wc.push(outFrame{env: e})
}

// enqueueRaw queues a relayed frame for this worker, taking a reference for
// the outbox entry (released by whoever drains it, once the bytes are in the
// write buffer or the write has failed) and giving it back if the outbox
// refuses the frame.
func (wc *workerConn) enqueueRaw(f *proto.Frame) bool {
	f.Retain()
	if !wc.push(outFrame{raw: f}) {
		f.Release()
		return false
	}
	return true
}

// push appends of and starts a drain goroutine if nobody is writing.
func (wc *workerConn) push(of outFrame) bool {
	wc.outMu.Lock()
	ok := wc.appendLocked(of)
	start := ok && !wc.writing
	if start {
		wc.writing = true
	}
	wc.outMu.Unlock()
	if start {
		go wc.drain()
	}
	return ok
}

// appendLocked adds of to the outbox unless the worker is gone or the outbox
// is full. Caller holds wc.outMu.
func (wc *workerConn) appendLocked(of outFrame) bool {
	if wc.gone.Load() || len(wc.out) >= outboxCap {
		return false
	}
	wc.out = append(wc.out, of)
	return true
}

// sendTask hands a task frame to the worker: written and flushed on the
// calling goroutine when the outbox is idle, appended behind the frames
// already queued otherwise. It reports false when the worker is gone or its
// outbox is full. A failed write closes the connection, so the reader loop
// runs workerGone, which fails the task.
func (wc *workerConn) sendTask(e *proto.Envelope) bool {
	wc.outMu.Lock()
	if wc.writing || wc.gone.Load() {
		// The goroutine that set writing drains the frame.
		ok := wc.appendLocked(outFrame{env: e})
		wc.outMu.Unlock()
		return ok
	}
	wc.writing = true
	wc.outMu.Unlock()
	if err := wc.codec.Send(e); err != nil {
		wc.codec.Close()
	}
	wc.outMu.Lock()
	handoff := len(wc.out) > 0
	wc.writing = handoff
	wc.outMu.Unlock()
	if handoff {
		go wc.drain()
	}
	return true
}

// drain writes the outbox in FIFO order until it is empty, one flush per
// batch it takes, then gives up the write side. A failed write closes the
// connection; the frames behind it are released unwritten.
func (wc *workerConn) drain() {
	var err error
	wc.outMu.Lock()
	for len(wc.out) > 0 {
		batch := wc.out
		wc.out = nil
		wc.outMu.Unlock()
		for _, of := range batch {
			if err == nil {
				if of.raw == nil {
					err = wc.codec.SendBuffered(of.env)
				} else {
					// SendRawBuffered copies the bytes, so the outbox's
					// reference can go at once.
					err = wc.codec.SendRawBuffered(of.raw.Payload())
				}
			}
			if of.raw != nil {
				of.raw.Release()
			}
		}
		if err == nil {
			err = wc.codec.Flush()
		}
		if err != nil {
			wc.codec.Close()
		}
		clear(batch)
		wc.outMu.Lock()
		if wc.out == nil {
			wc.out = batch[:0] // nothing arrived meanwhile: keep the storage
		}
	}
	wc.writing = false
	wc.outMu.Unlock()
}
