package proto

// The wire format: every frame payload is a compact varint-based binary
// body (DESIGN.md "Wire protocol").
//
//	u32 big-endian length | 0xBF magic | kind code | uvarint seq | body
//
// Every Kind has a kind code and a body layout below, so a frame is
// self-describing from its first two payload bytes. There is one format and
// no negotiation: a payload whose first byte is not the magic is rejected
// with an error wrapping ErrCorruptFrame, and the accepting side closes the
// connection.
// The json tags on Envelope only render an envelope for debugging and
// serve as the fuzz round-trip oracle; nothing on the wire is JSON.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// binMagic is the first payload byte of every frame.
const binMagic = 0xBF

// ErrCorruptFrame is returned when a frame fails to decode.
var ErrCorruptFrame = errors.New("proto: corrupt binary frame")

// checkMagic rejects a payload that does not open with the magic byte and a
// kind code. The seed's JSON v1 framing opened every payload with '{'; that
// case gets its own message so an operator attaching an old peer sees why
// it was disconnected.
func checkMagic(buf []byte) error {
	if len(buf) > 0 && buf[0] == '{' {
		return fmt.Errorf("%w: payload opens with '{': JSON v1 framing is no longer spoken", ErrCorruptFrame)
	}
	if len(buf) < 2 || buf[0] != binMagic {
		return ErrCorruptFrame
	}
	return nil
}

// Kind codes, the second payload byte of every frame. Codes are wire
// constants: never renumber one, only append (and add the kind to
// appendBinary, decodeBinary and the tests' kindOfCode —
// TestEveryKindHasACodec fails otherwise).
// Retired codes stay unassigned and are never reused: 1 was work-request and
// 13 no-work, before a result became the worker's next request; 5 and 7 were
// heartbeat and registered before the heartbeat lost its body and registered
// gained one, so a peer speaking the old layouts fails on its kind code; 11,
// 12 and 15-19 were the federation kinds (peer-submit, job-done, peer-attach,
// peer-attached, load-report, steal-request, steal-reply), so a router
// attaching to a worker port is refused at its first frame.
const (
	binTask       = 2
	binResult     = 3
	binOutput     = 4
	binRegister   = 6
	binStage      = 8
	binStaged     = 9
	binError      = 10
	binShutdown   = 14
	binHeartbeat  = 20
	binRegistered = 21
)

// appendBinary encodes e onto buf, returning the extended buffer and true.
// It reports false for an envelope that cannot be put on the wire: an
// unknown kind, or a kind whose payload field is nil.
func appendBinary(buf []byte, e *Envelope) ([]byte, bool) {
	switch e.Kind {
	case KindShutdown:
		buf = appendHead(buf, binShutdown, e.Seq)
	case KindHeartbeat:
		buf = appendHead(buf, binHeartbeat, e.Seq)
	case KindTask:
		if e.Task == nil {
			return buf, false
		}
		t := e.Task
		buf = appendHead(buf, binTask, e.Seq)
		buf = appendString(buf, t.TaskID)
		buf = appendString(buf, t.JobID)
		buf = appendString(buf, t.Cmd)
		buf = appendString(buf, t.Dir)
		buf = appendString(buf, t.Control)
		buf = appendString(buf, t.KVS)
		buf = appendStrings(buf, t.Args)
		buf = appendStrings(buf, t.Env)
		buf = appendVarint(buf, int64(t.Rank))
		buf = appendVarint(buf, int64(t.Size))
		buf = appendVarint(buf, int64(t.WallLimit))
	case KindResult:
		if e.Result == nil {
			return buf, false
		}
		r := e.Result
		buf = appendHead(buf, binResult, e.Seq)
		buf = appendString(buf, r.TaskID)
		buf = appendString(buf, r.JobID)
		buf = appendString(buf, r.Err)
		buf = appendVarint(buf, int64(r.ExitCode))
		buf = appendVarint(buf, int64(r.Elapsed))
	case KindOutput:
		if e.Output == nil {
			return buf, false
		}
		o := e.Output
		buf = appendHead(buf, binOutput, e.Seq)
		buf = appendString(buf, o.TaskID)
		buf = appendString(buf, o.Stream)
		buf = appendByteSlice(buf, o.Data)
	case KindRegister:
		if e.Register == nil {
			return buf, false
		}
		reg := e.Register
		buf = appendHead(buf, binRegister, e.Seq)
		buf = appendString(buf, reg.WorkerID)
		buf = appendString(buf, reg.Host)
		buf = appendVarint(buf, int64(reg.Cores))
		buf = appendInts(buf, reg.Coord)
	case KindRegistered:
		if e.Registered == nil {
			return buf, false
		}
		buf = appendHead(buf, binRegistered, e.Seq)
		buf = appendVarint(buf, int64(e.Registered.HeartbeatEvery))
	case KindStage, KindStaged:
		if e.Stage == nil {
			return buf, false
		}
		s := e.Stage
		if e.Kind == KindStage {
			buf = appendHead(buf, binStage, e.Seq)
		} else {
			buf = appendHead(buf, binStaged, e.Seq)
		}
		buf = appendString(buf, s.Name)
		buf = appendString(buf, s.Path)
		buf = appendByteSlice(buf, s.Data)
	case KindError:
		buf = appendHead(buf, binError, e.Seq)
		buf = appendString(buf, e.Error)
	default:
		return buf, false
	}
	return buf, true
}

// appendHead opens a payload: magic, kind code, sequence number.
func appendHead(buf []byte, code byte, seq uint64) []byte {
	buf = append(buf, binMagic, code)
	return appendUvarint(buf, seq)
}

// withBody is an envelope and its payload as one object: a decoded frame's
// two parts are made together and die together, so they cost one allocation.
type withBody[T any] struct {
	env  Envelope
	body T
}

// newBody allocates an envelope of the kind together with its payload.
func newBody[T any](kind Kind, seq uint64) (*Envelope, *T) {
	m := &withBody[T]{env: Envelope{Kind: kind, Seq: seq}}
	return &m.env, &m.body
}

// decodeBinary parses one frame payload (including the magic byte). Every
// string and []byte is copied out of buf, so the caller may reuse it. The
// envelope and its payload are one allocation; the strings of a task or a
// result frame are slices of one copy of its body (binReader.str).
func decodeBinary(buf []byte) (*Envelope, error) {
	if err := checkMagic(buf); err != nil {
		return nil, err
	}
	code := buf[1]
	r := binReader{buf: buf, off: 2, shareText: code == binTask || code == binResult}
	seq := r.uvarint()
	var e *Envelope
	switch code {
	case binShutdown:
		e = &Envelope{Kind: KindShutdown, Seq: seq}
	case binHeartbeat:
		e = &Envelope{Kind: KindHeartbeat, Seq: seq}
	case binTask:
		var t *Task
		e, t = newBody[Task](KindTask, seq)
		t.TaskID = r.str()
		t.JobID = r.str()
		t.Cmd = r.str()
		t.Dir = r.str()
		t.Control = r.str()
		t.KVS = r.str()
		t.Args = r.strs()
		t.Env = r.strs()
		t.Rank = int(r.varint())
		t.Size = int(r.varint())
		t.WallLimit = time.Duration(r.varint())
		e.Task = t
	case binResult:
		var res *Result
		e, res = newBody[Result](KindResult, seq)
		res.TaskID = r.str()
		res.JobID = r.str()
		res.Err = r.str()
		res.ExitCode = int(r.varint())
		res.Elapsed = time.Duration(r.varint())
		e.Result = res
	case binOutput:
		var o *Output
		e, o = newBody[Output](KindOutput, seq)
		o.TaskID = r.str()
		o.Stream = r.str()
		o.Data = r.byteSlice()
		e.Output = o
	case binRegister:
		var reg *Register
		e, reg = newBody[Register](KindRegister, seq)
		reg.WorkerID = r.str()
		reg.Host = r.str()
		reg.Cores = int(r.varint())
		reg.Coord = r.ints()
		e.Register = reg
	case binRegistered:
		var reg *Registered
		e, reg = newBody[Registered](KindRegistered, seq)
		reg.HeartbeatEvery = time.Duration(r.varint())
		e.Registered = reg
	case binStage, binStaged:
		kind := KindStage
		if code == binStaged {
			kind = KindStaged
		}
		var st *Stage
		e, st = newBody[Stage](kind, seq)
		st.Name = r.str()
		st.Path = r.str()
		st.Data = r.byteSlice()
		e.Stage = st
	case binError:
		e = &Envelope{Kind: KindError, Seq: seq}
		e.Error = r.str()
	default:
		return nil, fmt.Errorf("%w: unknown kind code %d", ErrCorruptFrame, code)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(buf)-r.off)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Encoding primitives: uvarint lengths, zigzag varints for signed fields.

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendByteSlice(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = appendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendVarint(b, int64(v))
	}
	return b
}

// binReader decodes the primitives with sticky-error accumulation: the
// first malformed field poisons the reader and every later read returns a
// zero value, so decode call sites stay linear.
type binReader struct {
	buf []byte
	off int
	err error

	// With shareText set, the first non-empty str copies the rest of the
	// payload into text (which starts at buf offset textAt), and every string
	// of the frame is a slice of that one copy. Only task and result frames
	// set it: their strings die with the task or the result. Another frame's
	// strings can outlive it one by one — a job ID kept in a table while the
	// job's spec goes to the spill store — and would pin the rest.
	shareText bool
	text      string
	textAt    int
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = ErrCorruptFrame
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return ""
	}
	var s string
	switch {
	case n == 0:
	case r.shareText:
		if r.text == "" {
			r.text, r.textAt = string(r.buf[r.off:]), r.off
		}
		s = r.text[r.off-r.textAt : r.off-r.textAt+int(n)]
	default:
		s = string(r.buf[r.off : r.off+int(n)])
	}
	r.off += int(n)
	return s
}

func (r *binReader) byteSlice() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return p
}

func (r *binReader) strs() []string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) { // each entry needs at least 1 length byte
		r.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.str())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *binReader) ints() []int {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) { // each entry needs at least 1 byte
		r.fail()
		return nil
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, int(r.varint()))
		if r.err != nil {
			return nil
		}
	}
	return out
}
