package proto

import (
	"io"
	"sync"
)

// PipeBuffer is how many unread bytes each direction of a Pipe holds before
// a write blocks: eight of the codec's 32 KiB write buffers. A writer flushing
// a full batch therefore returns without waiting for its reader to be
// scheduled, while a reader that stops reading still stalls its writer once
// the direction is full.
const PipeBuffer = 256 << 10

// Pipe returns a connected pair of codecs over the two ends of a PipeConn,
// used by the in-process runtime and by tests.
func Pipe() (*Codec, *Codec) {
	a, b := PipeConn()
	return NewCodec(a), NewCodec(b)
}

// PipeConn returns the two ends of a bounded, buffered in-memory duplex. A
// test that must put bytes on the wire that no codec would write, such as a
// malformed frame, writes them to an end directly.
//
// A write copies into the direction's buffer and returns; it blocks only
// while the buffer is full. Closing either end closes both directions: the
// other end reads what is still buffered and then io.EOF, the closing end's
// own reads fail at once, and every write fails with io.ErrClosedPipe.
// Goroutines block only in channel receives; the mutex of a direction is
// held only to copy bytes.
func PipeConn() (io.ReadWriteCloser, io.ReadWriteCloser) {
	ab, ba := newPipeBuf(), newPipeBuf()
	return &pipeEnd{r: ba, w: ab}, &pipeEnd{r: ab, w: ba}
}

// pipeEnd is one end of a Pipe: it reads one direction and writes the other.
type pipeEnd struct{ r, w *pipeBuf }

func (p *pipeEnd) Read(b []byte) (int, error)  { return p.r.read(b) }
func (p *pipeEnd) Write(b []byte) (int, error) { return p.w.write(b) }

// Close shuts both directions. It is idempotent.
func (p *pipeEnd) Close() error {
	p.r.shut(io.ErrClosedPipe)
	p.w.shut(io.EOF)
	return nil
}

// pipeBuf is one direction of a Pipe: the bytes written and not yet read.
type pipeBuf struct {
	mu   sync.Mutex
	data []byte // unread bytes are data[off:]
	off  int
	err  error // set once by shut: what a read returns after the buffer drains

	// One-slot wake-ups. shut leaves one in each, and a waiter that finds
	// the direction shut passes its wake-up on before it returns, so every
	// waiter sees the shut.
	readable chan struct{} // bytes arrived, or the direction was shut
	writable chan struct{} // room freed, or the direction was shut
}

func newPipeBuf() *pipeBuf {
	return &pipeBuf{
		readable: make(chan struct{}, 1),
		writable: make(chan struct{}, 1),
	}
}

// signal leaves a wake-up in a one-slot channel unless one is pending.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func (b *pipeBuf) write(p []byte) (int, error) {
	n := 0
	for {
		b.mu.Lock()
		if b.err != nil {
			b.mu.Unlock()
			signal(b.writable)
			return n, io.ErrClosedPipe
		}
		m := min(PipeBuffer-(len(b.data)-b.off), len(p)-n)
		if m > 0 {
			if b.off > 0 && len(b.data)+m > cap(b.data) {
				// Slide the unread bytes to the front before growing.
				b.data = b.data[:copy(b.data, b.data[b.off:])]
				b.off = 0
			}
			b.data = append(b.data, p[n:n+m]...)
			n += m
		}
		b.mu.Unlock()
		if m > 0 {
			signal(b.readable)
		}
		if n == len(p) {
			return n, nil
		}
		<-b.writable
	}
}

func (b *pipeBuf) read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		b.mu.Lock()
		if b.off < len(b.data) {
			n := copy(p, b.data[b.off:])
			b.off += n
			if b.off == len(b.data) {
				b.data, b.off = b.data[:0], 0
			}
			b.mu.Unlock()
			signal(b.writable)
			return n, nil
		}
		err := b.err
		b.mu.Unlock()
		if err != nil {
			signal(b.readable)
			return 0, err
		}
		<-b.readable
	}
}

// shut closes the direction. err is what reads return once the buffer is
// drained: io.EOF when the writing end closed, io.ErrClosedPipe when the
// reading end did — then the unread bytes are dropped, since no one is left
// to read them. The first shut wins, except that a reading end's close
// always drops the bytes.
func (b *pipeBuf) shut(err error) {
	b.mu.Lock()
	if err == io.ErrClosedPipe {
		b.data, b.off = nil, 0
	}
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	signal(b.readable)
	signal(b.writable)
}
