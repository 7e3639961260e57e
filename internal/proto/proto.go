// Package proto defines the JETS wire protocol: length-prefixed frames with
// a compact binary body (binary.go), used on the links that carry typed
// envelopes — worker agents talking to the central dispatcher, and routers
// talking to dispatcher instances.
//
// The paper's architecture principle 2 ("separate service pipeline processes
// through simple interfaces") is realized here: socket management is a thin,
// uniform layer and every higher component exchanges typed messages through
// it.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// MaxFrame is the largest frame the codec accepts. Oversized frames indicate
// a corrupt stream or a protocol mismatch, not legitimate traffic.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned when a peer announces a frame larger than
// MaxFrame.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")

// Kind identifies a message type on the wire.
type Kind string

// Message kinds. The dispatcher/worker cycle follows the paper's Fig. 4:
// workers register, receive proxy tasks, stream output, and report
// completion. Registration and each result are the worker's request for its
// next task; no separate frame asks for work.
const (
	KindRegister   Kind = "register"   // worker -> dispatcher: here I am, ready for a task
	KindRegistered Kind = "registered" // dispatcher -> worker: accepted, and how often to prove liveness
	KindTask       Kind = "task"       // dispatcher -> worker: run this
	KindResult     Kind = "result"     // worker -> dispatcher: task finished, ready for the next
	KindOutput     Kind = "output"     // worker -> dispatcher: task stdout/stderr chunk
	KindHeartbeat  Kind = "heartbeat"  // worker -> dispatcher: liveness, no body
	KindShutdown   Kind = "shutdown"   // dispatcher -> worker: exit cleanly
	KindStage      Kind = "stage"      // dispatcher -> worker: cache file locally
	KindStaged     Kind = "staged"     // worker -> dispatcher: cache ack
	KindError      Kind = "error"      // either direction: protocol-level failure
)

// Envelope is the frame carried on every connection. Exactly one payload
// field is populated according to Kind. The json tags render an envelope for
// debugging; the wire encoding is binary.go's.
type Envelope struct {
	Kind Kind   `json:"kind"`
	Seq  uint64 `json:"seq,omitempty"`

	Register   *Register   `json:"register,omitempty"`
	Registered *Registered `json:"registered,omitempty"`
	Task       *Task       `json:"task,omitempty"`
	Result     *Result     `json:"result,omitempty"`
	Output     *Output     `json:"output,omitempty"`
	Stage      *Stage      `json:"stage,omitempty"`
	Error      string      `json:"error,omitempty"`

	// Federation payloads (federate.go): router <-> dispatcher traffic.
	PeerAttach   *PeerAttach   `json:"peer_attach,omitempty"`
	PeerInfo     *PeerInfo     `json:"peer_info,omitempty"`
	PeerSubmit   *PeerSubmit   `json:"peer_submit,omitempty"`
	JobDone      *JobDone      `json:"job_done,omitempty"`
	LoadReport   *LoadReport   `json:"load_report,omitempty"`
	StealRequest *StealRequest `json:"steal_request,omitempty"`
	StealReply   *StealReply   `json:"steal_reply,omitempty"`
}

// Register announces a worker to the dispatcher.
type Register struct {
	WorkerID string `json:"worker_id"`
	Host     string `json:"host"`
	Cores    int    `json:"cores"`
	// Rank coordinates on the interconnect, used by topology-aware grouping.
	Coord []int `json:"coord,omitempty"`
}

// Registered accepts a worker. The dispatcher owns liveness: it knows which
// of its links can go silent, and tells each worker here how often to prove
// it is alive.
type Registered struct {
	// HeartbeatEvery is the heartbeat period; 0 means send none.
	HeartbeatEvery time.Duration `json:"heartbeat_every"`
}

// Task is one unit of work sent to a worker: either a plain sequential
// command or one Hydra proxy of a decomposed MPI job.
type Task struct {
	TaskID string   `json:"task_id"`
	JobID  string   `json:"job_id"`
	Cmd    string   `json:"cmd"`
	Args   []string `json:"args,omitempty"`
	Env    []string `json:"env,omitempty"` // KEY=VALUE pairs
	Dir    string   `json:"dir,omitempty"`

	// MPI-decomposition fields (zero for sequential tasks).
	Rank    int    `json:"rank,omitempty"`
	Size    int    `json:"size,omitempty"`
	Control string `json:"control,omitempty"` // mpiexec control endpoint to dial back
	KVS     string `json:"kvs,omitempty"`     // PMI key-value-space name

	// WallLimit, when positive, is the time after which the worker kills
	// the task and reports failure.
	WallLimit time.Duration `json:"wall_limit,omitempty"`
}

// Result reports task completion.
type Result struct {
	TaskID   string        `json:"task_id"`
	JobID    string        `json:"job_id"`
	ExitCode int           `json:"exit_code"`
	Err      string        `json:"err,omitempty"`
	Elapsed  time.Duration `json:"elapsed"`
}

// Output carries a chunk of task stdout or stderr back through the service,
// mirroring the paper's standard-output routing (application -> proxy ->
// mpiexec -> JETS -> file).
type Output struct {
	TaskID string `json:"task_id"`
	Stream string `json:"stream"` // "stdout" or "stderr"
	Data   []byte `json:"data"`
}

// Stage asks a worker to copy a file into node-local storage (the paper's
// local-storage optimization for proxy/user binaries and data).
type Stage struct {
	Name string `json:"name"`
	Data []byte `json:"data,omitempty"`
	Path string `json:"path,omitempty"` // destination hint inside the cache
}

// Codec frames Envelopes over an io.ReadWriter with a 4-byte big-endian
// length prefix. A Codec is safe for one concurrent reader and one
// concurrent writer; writes are additionally serialized internally so many
// goroutines may Send.
type Codec struct {
	r    *bufio.Reader
	rhdr [4]byte // length prefix being read; the codec has one reader
	w    *bufio.Writer
	wc   io.Closer

	mu   sync.Mutex // guards w, whdr, seq
	whdr [4]byte    // length prefix being written
	seq  uint64
}

// bufPool recycles frame scratch buffers across Send and Recv calls. The
// pool holds pointers so Put does not allocate a header for the slice.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// NewCodec wraps a connection. If rw implements io.Closer, Close will close
// it.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{
		r: bufio.NewReaderSize(rw, 32<<10),
		w: bufio.NewWriterSize(rw, 32<<10),
	}
	if cl, ok := rw.(io.Closer); ok {
		c.wc = cl
	}
	return c
}

// EnableBinary does nothing: binary is the only format a Codec speaks. It
// survives solely because bench/probes.go calls it and bench/ is frozen
// between benchmark PRs; delete it, and that call, with the next one.
func (c *Codec) EnableBinary() {}

// writeLocked encodes and buffers one envelope. Caller holds c.mu.
func (c *Codec) writeLocked(e *Envelope) error {
	c.seq++
	e.Seq = c.seq

	bp := bufPool.Get().(*[]byte)
	buf, ok := appendBinary((*bp)[:0], e)
	var err error
	if ok {
		err = c.writeFrameLocked(buf)
	} else {
		// A clone, not e.Kind itself: nothing reachable from e may escape,
		// so a caller's envelope and its payload can live on its stack.
		err = fmt.Errorf("proto: cannot encode %q envelope: unknown kind or missing payload", strings.Clone(string(e.Kind)))
	}
	*bp = buf[:0]
	bufPool.Put(bp)
	return err
}

func (c *Codec) writeFrameLocked(buf []byte) error {
	if len(buf) > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(c.whdr[:], uint32(len(buf)))
	if _, err := c.w.Write(c.whdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(buf)
	return err
}

// Send marshals and writes one envelope, assigning it the next sequence
// number, and flushes.
func (c *Codec) Send(e *Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeLocked(e); err != nil {
		return err
	}
	return c.w.Flush()
}

// SendBuffered writes one envelope into the codec's write buffer without
// flushing. A batching writer (a dispatcher worker link's outbox) calls
// it N times and then Flush once, amortizing the syscall per flush rather
// than per frame. Interleaving with Send is safe; Send simply flushes
// whatever is buffered along with its own frame.
func (c *Codec) SendBuffered(e *Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(e)
}

// Flush pushes buffered frames to the connection.
func (c *Codec) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Flush()
}

// Recv reads one envelope, blocking until a full frame arrives. The frame
// is read into a pooled buffer that goes back to the pool before Recv
// returns: decodeBinary copies out every byte the envelope keeps, so no
// decoded body aliases the buffer. A payload in any other format
// (binary.go's checkMagic) is an error wrapping ErrCorruptFrame; the stream
// cannot be trusted after it, so callers close the connection.
func (c *Codec) Recv() (*Envelope, error) {
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	bp := bufPool.Get().(*[]byte)
	buf := *bp
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	var e *Envelope
	_, err := io.ReadFull(c.r, buf)
	if err == nil {
		e, err = decodeBinary(buf)
	}
	*bp = buf[:0]
	bufPool.Put(bp)
	return e, err
}

// Close closes the underlying connection if it is closable.
func (c *Codec) Close() error {
	if c.wc != nil {
		return c.wc.Close()
	}
	return nil
}

// Dial connects to a JETS endpoint and returns a codec over the connection.
func Dial(addr string, timeout time.Duration) (*Codec, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewCodec(conn), nil
}
