package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jets/internal/obs"
	"jets/internal/pmi"
)

// Rank-pair links and sessions opened by the TCP transports of every rank
// this process hosts (a forked rank's counters end with it). They work
// detached; RegisterMetrics exports them through a registry.
var (
	connsDialed = obs.NewCounter("jets_mpi_connections_dialed_total",
		"rank-pair links dialed by MPI ranks in this process (a session on a kept link dials none)")
	connsAccepted = obs.NewCounter("jets_mpi_connections_accepted_total",
		"rank-pair links accepted by this process's MPI endpoint")
	connsDiscarded = obs.NewCounter("jets_mpi_connections_discarded_total",
		"rank-pair sessions given up unused because the peer's own session arrived first")
	sessionsOpened = obs.NewCounter("jets_mpi_sessions_total",
		"rank-pair sessions opened by MPI ranks in this process: one per pair that talks in a job")
)

// RegisterMetrics exports this package's link and session counters.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(connsDialed, connsAccepted, connsDiscarded, sessionsOpened)
}

// maxMessage bounds a single MPI message; larger payloads indicate stream
// corruption.
const maxMessage = 256 << 20

// transport moves framed messages between ranks. Implementations must allow
// concurrent sends from multiple goroutines.
type transport interface {
	// send delivers data to rank dst; it is eager (buffered) and does not
	// wait for a matching receive.
	send(dst, tag int, data []byte) error
	// close tears the transport down; pending receivers are woken with
	// ErrCommClosed.
	close() error
}

// ---------------------------------------------------------------------------
// local transport: in-process delivery straight into the peer's match queue.
// This models the vendor-native fabric (Blue Gene DCMF) in the Fig. 8
// comparison: no serialization, no kernel crossings.

type localFabric struct {
	queues []*matchQueue
}

// newLocalFabric creates the shared state for an n-process in-memory job.
func newLocalFabric(n int) *localFabric {
	f := &localFabric{queues: make([]*matchQueue, n)}
	for i := range f.queues {
		f.queues[i] = newMatchQueue()
	}
	return f
}

type localTransport struct {
	fabric *localFabric
	rank   int
}

func (t *localTransport) send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(t.fabric.queues) {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	// Copy so the sender may reuse its buffer, matching MPI semantics.
	cp := make([]byte, len(data))
	copy(cp, data)
	t.fabric.queues[dst].push(Message{Src: t.rank, Tag: tag, Data: cp})
	return nil
}

func (t *localTransport) close() error {
	t.fabric.queues[t.rank].close()
	return nil
}

// ---------------------------------------------------------------------------
// TCP transport: one endpoint per process. The process listens on one
// loopback socket; each rank it hosts registers there under an id and
// publishes host:port/id in the one PMI exchange of its bootstrap
// (pmi.DialFence), whose release hands back every peer's address. This is the
// wire-up the modified MPICH2 performs over ZeptoOS sockets in the paper.
//
// A link is one connection between two endpoints; a session is one rank
// pair's use of a link in one job, opened on the first send to the peer by a
// hello ahead of the first frame (the peer's id and the sender's rank). The
// other side replies on the session it accepted. When both send first at
// once, both open one, and each sends on its own and reads the other: still
// one ordered stream per direction. The tree collectives never race: a
// child's message to its parent is the first on their edge (collectives.go).
//
// Each side ends a session with a bye and writes nothing more in it. A link
// between two ranks of this process outlives its session: once the dialer has
// sent and read a bye it parks the link in a bounded idle pool, and the
// accepting reader waits for the next hello. Every message still crosses the
// kernel. A link to another process (forked ranks) ends with its session,
// dialer first: that keeps TIME_WAIT sockets off the accepting process's
// listening port, where they make the kernel's port-0 bind scan the whole
// range (DESIGN.md, "Gang-launch fast path": 2.8 ms per Listen).

// endpoint is a process's one listener for rank-pair links, the ranks
// registered at it, and the idle links it has dialed to itself.
type endpoint struct {
	mu    sync.Mutex
	ln    net.Listener // opened by the process's first rank
	addr  string       // ln's address
	ranks map[uint32]*tcpTransport
	next  uint32
	idle  []net.Conn // dialer ends of kept links between sessions
}

// defaultEndpoint serves every rank of this process; a test stands up another
// to play a second process.
var defaultEndpoint = &endpoint{}

// maxIdleLinks is a leak guard, not a tuning knob: in the tree collectives a
// rank dials only its parent, so the links in use cannot outnumber the ranks
// the process runs at once. A link parked past it is closed by its dialer.
const maxIdleLinks = 64

// keptLink is set in the rank word of a hello whose link outlives the session.
const keptLink = 1 << 31

// As in internal/pmi: no keep-alive probes on loopback links.
var (
	listenConfig = net.ListenConfig{KeepAlive: -1}
	dialer       = net.Dialer{Timeout: 10 * time.Second, KeepAlive: -1}
)

// readerPool recycles read buffers across links and dialed sessions. A body
// larger than the buffer bypasses it: bufio reads straight into the message.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 16<<10) },
}

// register gives t an id at ep, opening the listener for the process's first
// rank, and returns the address t publishes: host:port/id.
func (ep *endpoint) register(t *tcpTransport) (string, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.ln == nil {
		ln, err := listenConfig.Listen(context.Background(), "tcp", "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("mpi: listen: %w", err)
		}
		ep.ln, ep.addr, ep.ranks = ln, ln.Addr().String(), make(map[uint32]*tcpTransport)
		go ep.acceptLoop(ln)
	}
	ep.next++
	t.id = ep.next
	ep.ranks[t.id] = t
	return ep.addr + "/" + strconv.FormatUint(uint64(t.id), 10), nil
}

func (ep *endpoint) unregister(id uint32) {
	ep.mu.Lock()
	delete(ep.ranks, id)
	ep.mu.Unlock()
}

func (ep *endpoint) acceptLoop(ln net.Listener) {
	for {
		conn, err := obs.Accept(ln)
		if err != nil {
			return
		}
		connsAccepted.Inc()
		go ep.serve(conn)
	}
}

// serve reads an accepted link for its whole life. Each hello opens a session
// with the rank it names; a rank that is gone has it refused with a bye. When
// the dialer's bye ends a session, a kept link goes back to waiting for the
// next hello; any other link ends with its session, after its dialer closed.
func (ep *endpoint) serve(conn net.Conn) {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(conn)
	defer func() {
		conn.Close()
		r.Reset(nil)
		readerPool.Put(r)
	}()
	var hello [8]byte
	for {
		if _, err := io.ReadFull(r, hello[:]); err != nil {
			return
		}
		from := binary.BigEndian.Uint32(hello[4:])
		s := &session{link: conn, peer: int(from &^ keptLink), accepted: true, kept: from&keptLink != 0}
		t := ep.adopt(binary.BigEndian.Uint32(hello[:4]), s)
		if t == nil {
			s.bye(false)
		}
		clean := readSession(t, s, r)
		if clean {
			s.bye(false)
		}
		if t != nil {
			t.wg.Done()
		}
		if !clean || !s.kept {
			return
		}
	}
}

// take returns an idle link to ep, nil if there is none.
func (ep *endpoint) take() (c net.Conn) {
	ep.mu.Lock()
	if n := len(ep.idle); n > 0 {
		c, ep.idle = ep.idle[n-1], ep.idle[:n-1]
	}
	ep.mu.Unlock()
	return c
}

// park keeps a link whose session is over at both ends for a later session.
func (ep *endpoint) park(c net.Conn) {
	ep.mu.Lock()
	if len(ep.idle) < maxIdleLinks {
		ep.idle, c = append(ep.idle, c), nil
	}
	ep.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

type tcpTransport struct {
	ep   *endpoint
	id   uint32
	rank int
	size int
	q    *matchQueue
	pc   *pmi.Client

	mu       sync.Mutex
	peers    []*session // by rank: the session this rank sends to that peer on
	sessions []*session // every session of this rank, for close
	done     bool

	wg sync.WaitGroup // one per session not yet over on the wire
}

// session is one rank's end of a session.
type session struct {
	link     net.Conn
	peer     int // the rank at the other end
	accepted bool
	kept     bool // the link joins two ranks of this process
	wmu      sync.Mutex
	hello    uint64 // a dialer's until written: [4 peer's id][4 own rank | keptLink]
	over     bool   // this end has said bye or dropped the link
	err      error  // of the bye
	buf      [256]byte
}

// frame layout: [4 len][4 tag][payload]. A dialer's first frame is preceded
// by its hello. Header and a small payload leave in one write.
func (s *session) writeFrame(tag int, data []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.over {
		return fmt.Errorf("mpi: send to rank %d: %w", s.peer, ErrPeerClosed)
	}
	b := s.greet(s.buf[:0])
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(tag)))
	if len(data) <= cap(b)-len(b) {
		_, err := s.link.Write(append(b, data...))
		return err
	}
	// Large payload: header and body go out in one writev, uncopied.
	bufs := net.Buffers{b, data}
	_, err := bufs.WriteTo(s.link)
	return err
}

// greet appends the hello to b if it has not been written. Caller holds wmu.
func (s *session) greet(b []byte) []byte {
	if s.hello != 0 {
		b, s.hello = binary.BigEndian.AppendUint64(b, s.hello), 0
	}
	return b
}

// byeLen in a header's length field is a bye: its sender writes nothing more
// in the session. byeWait bounds how long a rank closing a session accepted
// from another process waits for the dialer to close the link.
const (
	byeLen  = 0xFFFFFFFF
	byeWait = time.Second
)

// bye ends this end of the session if it has not ended, and returns the bye's
// write error. wait starts byeWait on the read side.
func (s *session) bye(wait bool) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.over {
		s.over = true
		if wait {
			s.link.SetReadDeadline(time.Now().Add(byeWait))
		}
		b := binary.BigEndian.AppendUint32(s.greet(s.buf[:0]), byeLen)
		_, s.err = s.link.Write(binary.BigEndian.AppendUint32(b, 0))
	}
	return s.err
}

// drop gives the link up: this end writes nothing more on it, and closes it.
func (s *session) drop() {
	s.wmu.Lock()
	s.over = true
	s.wmu.Unlock()
	s.link.Close()
}

// readSession delivers one session's messages from r to t's queue (t is nil
// for a refused session) and reports whether the other side's bye ended it,
// rather than a broken link. A peer sends to this rank on one session for the
// whole job, so once that one is read out, receives waiting on the peer fail.
// A session this rank dialed and got no frame on is not it.
func readSession(t *tcpTransport, s *session, r *bufio.Reader) bool {
	inbound := s.accepted
	clean := false
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if clean = n == byeLen; clean || n > maxMessage { // a bye, or a corrupt stream
			break
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			break
		}
		if t != nil {
			t.q.push(Message{Src: s.peer, Tag: int(int32(binary.BigEndian.Uint32(hdr[4:8]))), Data: data})
		}
		inbound = true
	}
	if inbound && t != nil {
		t.q.peerGone(s.peer)
	}
	return clean
}

func pmiAddrKey(rank int) string { return "mpiaddr-" + strconv.Itoa(rank) }

// init performs the socket wire-up for one rank: register at ep, then one PMI
// exchange that publishes the address and returns once every rank's address
// is known.
func (ep *endpoint) init(pmiAddr, kvsName string, rank int) (*Comm, error) {
	t := &tcpTransport{ep: ep, rank: rank, q: newMatchQueue()}
	// Once the fence has published this rank, a session may arrive before the
	// job's size is known here: adopt waits on t.mu.
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, err := ep.register(t)
	if err != nil {
		return nil, err
	}
	pc, err := pmi.DialFence(pmiAddr, kvsName, rank, pmiAddrKey(rank), addr)
	if err != nil {
		t.done = true
		ep.unregister(t.id)
		return nil, err
	}
	t.size, t.pc, t.peers = pc.Size(), pc, make([]*session, pc.Size())
	return &Comm{rank: rank, size: t.size, q: t.q, tr: t, pc: pc}, nil
}

// adopt makes the accepted session s one of the rank registered as id and
// returns its transport; nil if there is none, it is closed, or s names no
// peer it could have. s becomes the way to reply to its peer unless the rank
// has one.
func (ep *endpoint) adopt(id uint32, s *session) *tcpTransport {
	ep.mu.Lock()
	t := ep.ranks[id]
	ep.mu.Unlock()
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || s.peer >= t.size || s.peer == t.rank {
		return nil
	}
	if t.peers[s.peer] == nil {
		t.peers[s.peer] = s
	}
	t.sessions = append(t.sessions, s)
	t.wg.Add(1)
	return t
}

// peer returns the session to send to dst on, opening one on an idle link or
// a new one if the pair has none yet.
func (t *tcpTransport) peer(dst int) (*session, error) {
	t.mu.Lock()
	s, done := t.peers[dst], t.done
	t.mu.Unlock()
	if done {
		return nil, ErrCommClosed
	}
	if s != nil {
		return s, nil
	}
	addr, err := t.pc.Get(pmiAddrKey(dst)) // from the bootstrap fence, no round trip
	if err != nil {
		return nil, fmt.Errorf("mpi: no address for rank %d: %w", dst, err)
	}
	i := strings.LastIndexByte(addr, '/')
	id, err := strconv.ParseUint(addr[i+1:], 10, 32)
	if i < 0 || err != nil {
		return nil, fmt.Errorf("mpi: bad address %q for rank %d", addr, dst)
	}
	s = &session{peer: dst, kept: addr[:i] == t.ep.addr, hello: id<<32 | uint64(t.rank)}
	if s.kept {
		s.link, s.hello = t.ep.take(), s.hello|keptLink
	}
	if s.link == nil {
		if s.link, err = dialer.Dial("tcp", addr[:i]); err != nil {
			return nil, fmt.Errorf("mpi: dial rank %d: %w", dst, err)
		}
		connsDialed.Inc()
	}
	t.mu.Lock()
	existing, done := t.peers[dst], t.done
	if existing == nil && !done {
		t.peers[dst] = s
		t.sessions = append(t.sessions, s)
		t.wg.Add(1)
	}
	t.mu.Unlock()
	if existing != nil || done {
		// The peer's own session arrived, or another sender opened one, while
		// we were getting a link; ours has carried nothing.
		if s.kept {
			t.ep.park(s.link)
		} else {
			s.link.Close()
		}
		if done {
			return nil, ErrCommClosed
		}
		connsDiscarded.Inc()
		return existing, nil
	}
	sessionsOpened.Inc()
	go t.readDialed(s)
	return s, nil
}

// readDialed reads a session this rank dialed until the accepting side's bye,
// answers it, and parks a kept link for a later session. A link to another
// process is closed here, by its dialer.
func (t *tcpTransport) readDialed(s *session) {
	defer t.wg.Done()
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(s.link)
	reuse := readSession(t, s, r) && s.kept && r.Buffered() == 0 && s.bye(false) == nil
	r.Reset(nil)
	readerPool.Put(r)
	if reuse {
		t.ep.park(s.link)
	} else {
		s.drop()
	}
}

func (t *tcpTransport) send(dst, tag int, data []byte) error {
	if dst == t.rank { // self-send short-circuits the socket layer
		cp := make([]byte, len(data))
		copy(cp, data)
		t.q.push(Message{Src: t.rank, Tag: tag, Data: cp})
		return nil
	}
	if dst < 0 || dst >= t.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	s, err := t.peer(dst)
	if err != nil {
		return err
	}
	return s.writeFrame(tag, data)
}

// close says bye on every session of this rank (a link it dialed to another
// process is closed instead) and returns once each is over on the wire: when
// the other side's bye or end of stream is read. A dialer in another process
// has byeWait to close its link first.
func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	sessions := t.sessions
	t.mu.Unlock()
	t.ep.unregister(t.id)
	for _, s := range sessions {
		if s.accepted || s.kept {
			s.bye(!s.kept)
		} else {
			s.drop()
		}
	}
	t.wg.Wait()
	t.q.close()
	return nil
}
