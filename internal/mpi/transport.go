package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
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
// A link is one connection between two endpoints; each of its ends has one
// reader for the link's life, and every frame names the rank it is for (by
// endpoint id) and the rank it is from. A session is one rank pair's use of a
// link in one job, opened by the first send to the peer, which replies on the
// same link. When both send first at once, both open one, and each sends on
// its own: still one ordered stream per direction. The tree collectives never
// race: a child's message to its parent is the first on their edge.
//
// A link between two ranks of this process outlives its sessions, which end
// in memory: a rank that leaves tells every rank of its job at the endpoint
// how many frames it sent it, and parks the links it dialed at once. Only
// data crosses the kernel. A link to another process (forked ranks) carries
// one session, which the accepting side ends with a bye; the dialer closes
// first, which keeps TIME_WAIT sockets off the listening port, where they make
// the kernel's port-0 bind scan the whole range (DESIGN.md, "Gang-launch fast
// path": 2.8 ms per Listen).

// endpoint is a process's one listener for rank-pair links, the ranks
// registered at it, and the idle links it has dialed to itself.
type endpoint struct {
	mu        sync.Mutex
	ln        net.Listener // opened by the process's first rank
	addr      string       // ln's address
	ranks     map[uint32]*tcpTransport
	next      uint32
	idle      []net.Conn       // dialer ends of kept links between sessions
	unclaimed []netip.AddrPort // dialer ends of links to itself whose other end has read nothing
}

// defaultEndpoint serves every rank of this process; a test stands up another
// to play a second process.
var defaultEndpoint = &endpoint{}

// maxIdleLinks is a leak guard, not a tuning knob: in the tree collectives a
// rank dials only its parent, so the links in use cannot outnumber the ranks
// the process runs at once. A link parked past it is closed by its dialer.
const maxIdleLinks = 64

// As in internal/pmi: no keep-alive probes on loopback links.
var (
	listenConfig = net.ListenConfig{KeepAlive: -1}
	dialer       = net.Dialer{Timeout: 10 * time.Second, KeepAlive: -1}
)

// readerPool recycles read buffers across links. A body larger than the
// buffer bypasses it: bufio reads straight into the message.
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

func (ep *endpoint) lookup(id uint32) *tcpTransport {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.ranks[id]
}

// jobmates appends to dst the other ranks of t's job at ep (only rank, if ≥ 0).
func (ep *endpoint) jobmates(t *tcpTransport, rank int, dst []*tcpTransport) []*tcpTransport {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, u := range ep.ranks {
		if u != t && u.pmiAddr == t.pmiAddr && u.kvs == t.kvs && (rank < 0 || u.rank == rank) {
			dst = append(dst, u)
		}
	}
	return dst
}

func (ep *endpoint) acceptLoop(ln net.Listener) {
	for {
		conn, err := obs.Accept(ln)
		if err != nil {
			return
		}
		connsAccepted.Inc()
		go ep.readLink(conn, nil, nil, true)
	}
}

// readLink reads one end of a link for its whole life (read), then closes
// it. A link to another process carries one session: s of t if this rank
// dialed it, else the first frame's, refused with a bye if its rank has left.
// The first frame on an accepted link tells which kind it is.
func (ep *endpoint) readLink(conn net.Conn, t *tcpTransport, s *session, accepted bool) {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(conn)
	if accepted {
		h, err := r.Peek(hdrLen)
		if local := ep.claim(conn); err == nil && !local {
			from := int(binary.BigEndian.Uint32(h[12:]))
			if t = ep.lookup(binary.BigEndian.Uint32(h[8:])); t != nil {
				s, _ = t.adopt(conn, from, false)
			}
			if s == nil {
				t, s = nil, &session{link: conn, peer: from, accepted: true}
				s.bye(0, 0, false)
			}
		}
	}
	ep.read(conn, r, t, s)
	r.Reset(nil)
	readerPool.Put(r)
	conn.Close()
	if t != nil {
		s.end()
		t.wg.Done()
	}
}

// claim reports whether conn comes from a link ep dialed to itself.
func (ep *endpoint) claim(conn net.Conn) bool {
	ap := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
	ep.mu.Lock()
	defer ep.mu.Unlock()
	i := slices.Index(ep.unclaimed, ap)
	if i >= 0 {
		ep.unclaimed = slices.Delete(ep.unclaimed, i, i+1)
	}
	return i >= 0
}

// read reads one end of a link until it ends. On a link between ranks of this
// process (s and t nil) each frame goes to the rank it names, which adopts a
// session from a rank it has none with; a frame for a rank that left is
// dropped. A link to another process carries s, of t (nil if refused), only,
// until the peer's bye, which counts what it sent this rank, or the link's
// end, which counts what arrived if anything did: a peer sends to a rank on
// one session, and a dialed one it sent nothing on is not it.
func (ep *endpoint) read(conn net.Conn, r *bufio.Reader, t *tcpTransport, s *session) {
	var h [hdrLen]byte
	from, got := -1, 0
	if s != nil {
		from = s.peer // adopt checked it; a later header is not trusted
	}
	for {
		if _, err := io.ReadFull(r, h[:]); err != nil {
			break
		}
		n, tag := binary.BigEndian.Uint32(h[0:4]), binary.BigEndian.Uint32(h[4:8])
		if n == byeLen && t != nil && s != nil {
			t.q.peerGone(s.peer, int(tag))
			return
		}
		if n > maxMessage { // a refusal, or a corrupt stream
			break
		}
		if id, f := binary.BigEndian.Uint32(h[8:]), int(binary.BigEndian.Uint32(h[12:])); s == nil && (t == nil || t.id != id || f != from) {
			from = f
			if t = ep.lookup(id); t != nil {
				if _, ok := t.adopt(conn, from, true); !ok {
					t = nil
				}
			}
		}
		if t == nil {
			if _, err := r.Discard(int(n)); err != nil {
				break
			}
			continue
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			break
		}
		t.q.push(Message{Src: from, Tag: int(int32(tag)), Data: data})
		got++
	}
	if s != nil && got > 0 {
		t.q.peerGone(s.peer, got)
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

// park keeps a link between two ranks of this process for a later session.
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

// dial opens a link to host; one to ep itself (local) is read from here on.
func (ep *endpoint) dial(host string, local bool) (net.Conn, error) {
	conn, err := dialer.Dial("tcp", host)
	if err != nil || !local {
		return conn, err
	}
	ep.mu.Lock()
	ep.unclaimed = append(ep.unclaimed, conn.LocalAddr().(*net.TCPAddr).AddrPort())
	ep.mu.Unlock()
	go ep.readLink(conn, nil, nil, false)
	return conn, nil
}

type tcpTransport struct {
	ep           *endpoint
	id           uint32
	rank         int
	size         int
	pmiAddr, kvs string // the job: its PMI endpoint and name there
	q            *matchQueue
	pc           *pmi.Client

	mu       sync.Mutex
	peers    []*session // by rank: the session this rank sends to that peer on
	sessions []*session // every session of this rank, for close
	done     bool

	wg sync.WaitGroup // one per session with another process not yet over on the wire
}

// session is one rank's end of a session.
type session struct {
	link     net.Conn
	peer     int    // the rank at the other end
	id       uint32 // its endpoint id, or 0 (no rank's): it left, or dialed from another process
	accepted bool
	local    bool // the link joins two ranks of this process
	wmu      sync.Mutex
	sent     int  // frames written
	over     bool // this end writes nothing more
	buf      [256]byte
}

// frame layout: [4 len][4 tag][4 receiver's endpoint id][4 sender's rank]
// [payload]. Header and a small payload leave in one write.
const hdrLen = 16

func (s *session) writeFrame(from, tag int, data []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.over {
		return fmt.Errorf("mpi: send to rank %d: %w", s.peer, ErrPeerClosed)
	}
	b := s.header(uint32(len(data)), uint32(int32(tag)), from)
	var err error
	if len(data) <= cap(b)-len(b) {
		_, err = s.link.Write(append(b, data...))
	} else { // large payload: header and body go out in one writev, uncopied
		bufs := net.Buffers{b, data}
		_, err = bufs.WriteTo(s.link)
	}
	if err == nil {
		s.sent++
	}
	return err
}

// header fills in a frame header from this rank to the peer. Caller holds wmu.
func (s *session) header(n, tag uint32, from int) []byte {
	b := binary.BigEndian.AppendUint32(s.buf[:0], n)
	b = binary.BigEndian.AppendUint32(b, tag)
	b = binary.BigEndian.AppendUint32(b, s.id)
	return binary.BigEndian.AppendUint32(b, uint32(from))
}

// byeLen in a header's length field is a bye, which ends a session with
// another process: its tag field counts the frames the sender sent in all,
// and the sender writes nothing more. byeWait bounds how long a rank closing
// a session accepted from another process waits for the dialer to close the
// link.
const (
	byeLen  = 0xFFFFFFFF
	byeWait = time.Second
)

// end stops this end's writes and returns how many frames it wrote; none for
// no session.
func (s *session) end() int {
	if s == nil {
		return 0
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.over = true
	return s.sent
}

// bye ends this end of the session with a bye from rank from, which sent the
// peer sent frames. wait starts byeWait on the read side.
func (s *session) bye(from, sent int, wait bool) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.over = true
	if wait {
		s.link.SetReadDeadline(time.Now().Add(byeWait))
	}
	s.link.Write(s.header(byeLen, uint32(sent), from))
}

func pmiAddrKey(rank int) string { return "mpiaddr-" + strconv.Itoa(rank) }

// init performs the socket wire-up for one rank: register at ep, then one PMI
// exchange that publishes the address and returns once every rank's address
// is known.
func (ep *endpoint) init(pmiAddr, kvsName string, rank int) (*Comm, error) {
	t := &tcpTransport{ep: ep, rank: rank, pmiAddr: pmiAddr, kvs: kvsName, q: newMatchQueue()}
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

// adopt takes a session from peer that arrived on link (false: t is closed or
// has no such peer). It becomes t's way to reply to peer unless t has one; one
// from this process is only kept then (else nil), one from another always.
func (t *tcpTransport) adopt(link net.Conn, peer int, local bool) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || peer < 0 || peer >= t.size || peer == t.rank {
		return nil, false
	}
	if local && t.peers[peer] != nil {
		return nil, true
	}
	s := &session{link: link, peer: peer, accepted: true, local: local}
	if local {
		var buf [1]*tcpTransport
		if u := t.ep.jobmates(t, peer, buf[:0]); len(u) > 0 {
			s.id = u[0].id
		}
	}
	if t.peers[peer] == nil {
		t.peers[peer] = s
	}
	t.sessions = append(t.sessions, s)
	if !local {
		t.wg.Add(1)
	}
	return s, true
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
	s = &session{peer: dst}
	var buf [1]*tcpTransport
	host := t.ep.addr
	if u := t.ep.jobmates(t, dst, buf[:0]); len(u) > 0 {
		s.id, s.local, s.link = u[0].id, true, t.ep.take()
	} else {
		addr, err := t.pc.Get(pmiAddrKey(dst)) // from the bootstrap fence, no round trip
		if err != nil {
			return nil, fmt.Errorf("mpi: no address for rank %d: %w", dst, err)
		}
		i := strings.LastIndexByte(addr, '/')
		id, err := strconv.ParseUint(addr[i+1:], 10, 32)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("mpi: bad address %q for rank %d", addr, dst)
		}
		if host, s.id = addr[:i], uint32(id); host == t.ep.addr { // a rank of this process that has left
			return nil, fmt.Errorf("mpi: send to rank %d: %w", dst, ErrPeerClosed)
		}
	}
	var err error
	if s.link == nil {
		if s.link, err = t.ep.dial(host, s.local); err != nil {
			return nil, fmt.Errorf("mpi: dial rank %d: %w", dst, err)
		}
		connsDialed.Inc()
	}
	t.mu.Lock()
	existing, done := t.peers[dst], t.done
	if existing == nil && !done {
		t.peers[dst] = s
		t.sessions = append(t.sessions, s)
		if !s.local {
			t.wg.Add(1)
		}
	}
	t.mu.Unlock()
	if existing != nil || done {
		// The peer's own session arrived, or another sender opened one, while
		// we were getting a link; ours has carried nothing.
		if s.local {
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
	if !s.local {
		go t.ep.readLink(s.link, t, s, false)
	}
	return s, nil
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
	if t.q.left(dst) {
		return fmt.Errorf("mpi: send to rank %d: %w", dst, ErrPeerClosed)
	}
	s, err := t.peer(dst)
	if err != nil {
		return err
	}
	return s.writeFrame(t.rank, tag, data)
}

// close ends every session of this rank: in memory for the ranks of its job at
// this endpoint, each told how many frames this one sent it, and on the wire
// for another process's, with a bye on one it accepted and a close of one it
// dialed. It returns once each of those is over: when the link is closed, or
// byeWait has passed for the dialer to close it first.
func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	peers, sessions := t.peers, t.sessions
	t.mu.Unlock()
	var buf [16]*tcpTransport
	for _, u := range t.ep.jobmates(t, -1, buf[:0]) {
		u.q.peerGone(t.rank, peers[u.rank].end())
	}
	t.ep.unregister(t.id)
	for _, s := range sessions {
		switch {
		case s.local && !s.accepted:
			s.end()
			t.ep.park(s.link)
		case s.local:
		case s.accepted:
			s.bye(t.rank, peers[s.peer].end(), true)
		default: // the reader closes it too, and ends s
			s.link.Close()
		}
	}
	t.wg.Wait()
	t.q.close()
	return nil
}
