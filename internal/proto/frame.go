package proto

// Zero-copy frame relay.
//
// The dispatcher's output and stage paths are pure relays: bytes produced
// by one peer are delivered verbatim to another. Decoding a frame into an
// Envelope only to re-encode the identical payload costs an allocation and
// two copies per frame on the largest frames in the system. A Frame keeps
// the raw payload bytes in the pooled receive buffer and reference-counts
// the buffer, so a relay can classify the frame from its first two bytes,
// queue it for any number of outbound connections, and write the original
// bytes with Codec.SendRaw — the pool gets the buffer back only after the
// last holder releases it.
//
// Ownership rules (see DESIGN.md "Wire protocol"):
//
//   - RecvFrame returns a Frame holding one reference; the receiver owns it
//     and must Release exactly once.
//   - A handler that hands the frame to another goroutine (an Outbox, whose
//     PushRaw does this) calls Retain first; that goroutine Releases
//     after its write completes. SendRaw copies the payload into the
//     connection's write buffer before returning, so releasing immediately
//     after it returns is safe.
//   - Payload and Envelope must only be called while holding a reference.
//     Envelope decodes lazily, copies all byte slices out of the pooled
//     buffer, and caches the result, so a decoded envelope stays valid
//     after the final Release.
//
// PoisonFrames makes violations loud: with poisoning enabled every buffer
// returned to the pool is first overwritten with poisonByte, so a relay
// reading after release observes corrupt data instead of silently racing.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// poisonByte overwrites released frame buffers when poisoning is on.
const poisonByte = 0xDB

var poisonFrames atomic.Bool

// PoisonFrames toggles poison-on-release for every pooled frame buffer in
// the process: released buffers are filled with 0xDB before reuse. It is a
// test hook for buffer-lifetime hardening — a use-after-release that would
// otherwise be a silent data race surfaces as poisoned payload bytes.
func PoisonFrames(on bool) { poisonFrames.Store(on) }

// Frame is one received wire frame: its kind and the raw payload bytes
// backed by a reference-counted pooled buffer.
type Frame struct {
	kind Kind
	bp   *[]byte // pooled backing entry; recycled on final Release
	data []byte  // payload as read off the wire (no length prefix)
	refs atomic.Int32

	dec    sync.Once
	env    *Envelope
	envErr error
}

// Kind reports the frame's message kind, known without decoding the body.
func (f *Frame) Kind() Kind { return f.kind }

// Payload returns the raw frame bytes, valid until the final Release.
func (f *Frame) Payload() []byte { return f.data }

// Retain adds a reference. Call it before handing the frame to another
// goroutine; pair every Retain with exactly one Release.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last release recycles the pooled buffer
// (poisoning it first if PoisonFrames is on). Releasing more times than
// Retain+RecvFrame granted references panics: an over-release would hand
// the same buffer to the pool twice and corrupt an unrelated frame.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("proto: Frame released more times than retained")
	}
	if f.bp != nil {
		putBuf(f.bp, f.data)
		f.bp, f.data = nil, nil
	}
}

// Envelope decodes the frame into a typed envelope, caching the result.
// Byte-slice payloads are copied out of the pooled buffer, so the returned
// envelope remains valid after the frame's final Release. Safe for
// concurrent callers; must first be called while holding a reference. The
// envelope is shared by every caller of this frame and must be treated as
// read-only — a relay re-sending it through a Codec must pass a shallow
// copy, because Send stamps its per-connection Seq on the envelope it is
// given.
func (f *Frame) Envelope() (*Envelope, error) {
	f.dec.Do(func() { f.env, f.envErr = decodeBinary(f.data) })
	return f.env, f.envErr
}

// RecvFrame reads one frame and classifies it from its two-byte prefix
// without decoding the body. A payload in any other format is rejected like
// Recv rejects it. The returned frame holds one reference that the caller
// must Release.
func (c *Codec) RecvFrame() (*Frame, error) {
	bp, buf, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if err := checkMagic(buf); err != nil {
		putBuf(bp, buf)
		return nil, err
	}
	kind, ok := binKindOf(buf[1])
	if !ok {
		putBuf(bp, buf)
		return nil, fmt.Errorf("%w: unknown kind code %d", ErrCorruptFrame, buf[1])
	}
	f := &Frame{kind: kind, bp: bp, data: buf}
	f.refs.Store(1)
	return f, nil
}

// SendRaw writes a pre-encoded frame payload (from Frame.Payload) and
// flushes. The bytes are copied into the connection's write buffer before
// SendRaw returns, so the caller may Release the frame immediately after.
// The payload keeps its origin sequence number: relayed frames carry the
// producer's seq, which is diagnostic only.
func (c *Codec) SendRaw(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeFrameLocked(p); err != nil {
		return err
	}
	return c.w.Flush()
}

// SendRawBuffered writes a pre-encoded frame payload into the write buffer
// without flushing, for batching relays (pair with Flush). Like SendRaw,
// the bytes are copied before it returns.
func (c *Codec) SendRawBuffered(p []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeFrameLocked(p)
}
