package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"jets/internal/obs"
	"jets/internal/pmi"
)

// Rank-pair sockets opened by the TCP transports of every rank this process
// hosts (a forked rank's counters end with it). They work detached;
// RegisterMetrics exports them through a registry.
var (
	connsDialed = obs.NewCounter("jets_mpi_connections_dialed_total",
		"rank-pair connections dialed by MPI ranks in this process")
	connsAccepted = obs.NewCounter("jets_mpi_connections_accepted_total",
		"rank-pair connections accepted by MPI ranks in this process")
	connsDiscarded = obs.NewCounter("jets_mpi_connections_discarded_total",
		"dialed rank-pair connections closed unused because the peer's own dial arrived first")
)

// RegisterMetrics exports this package's connection counters.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(connsDialed, connsAccepted, connsDiscarded)
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
// TCP transport: every rank listens on a loopback socket and publishes the
// address in the one PMI exchange of its bootstrap (pmi.DialFence), whose
// release hands back every peer's address; connections are then made lazily,
// on the first send to a peer. This is the wire-up the modified MPICH2
// performs over ZeptoOS sockets in the paper.
//
// A pair of ranks shares one connection for both directions: whichever side
// sends first dials, and the other side replies on the connection it
// accepted. When both sides send first at once, both dial; each then keeps
// sending on the connection it dialed and only reads the other, so every
// message still travels one ordered stream per direction and nothing is
// delivered twice. The tree collectives never race: a child's message to its
// parent is the first on their edge, so the child dials (collectives.go).
//
// The dialing side always closes a connection first: a rank done with an
// accepted connection sends a bye frame and closes on the dialer's EOF. That
// keeps TIME_WAIT sockets off the ranks' listening ports, where they make the
// kernel's port-0 bind scan the whole range (DESIGN.md, "Gang-launch fast
// path": 2.8 ms per Listen, job rate down 10x).

type tcpTransport struct {
	rank int
	size int
	q    *matchQueue
	pc   *pmi.Client

	ln net.Listener

	mu    sync.Mutex
	peers []*tcpConn // by rank: the connection this rank sends to that peer on
	conns []*tcpConn // every open connection, for close
	done  bool

	wg sync.WaitGroup // the accept loop and one reader per connection
}

// As in internal/pmi: no keep-alive probes on a job's loopback connections.
var (
	listenConfig = net.ListenConfig{KeepAlive: -1}
	dialer       = net.Dialer{Timeout: 10 * time.Second, KeepAlive: -1}
)

// readerPool recycles read buffers across the millisecond-lived connections
// of successive jobs. A body larger than the buffer bypasses it: bufio reads
// straight into the message.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 16<<10) },
}

// tcpConn is one end of a pair's connection.
type tcpConn struct {
	conn net.Conn
	wmu  sync.Mutex
	// hello is the rank a dialer announces ahead of its first frame; -1 once
	// sent, and on accepted connections.
	hello    int
	accepted bool
	buf      [256]byte // header plus a small payload: one write per frame
}

// frame layout: [4 len][4 tag][payload]. The first frame a dialer writes is
// preceded by its 4-byte rank.
func (c *tcpConn) writeFrame(tag int, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := c.buf[:0]
	if c.hello >= 0 {
		b = binary.BigEndian.AppendUint32(b, uint32(c.hello))
		c.hello = -1
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(tag)))
	if len(data) <= cap(b)-len(b) {
		_, err := c.conn.Write(append(b, data...))
		return err
	}
	// Large payload: header and body go out in one writev, uncopied.
	bufs := net.Buffers{b, data}
	_, err := bufs.WriteTo(c.conn)
	return err
}

// byeLen in a header's length field asks the reader to close the connection;
// like any length above maxMessage it ends the read loop. byeWait bounds how
// long a closing rank waits for the dialer to comply.
const (
	byeLen  = 0xFFFFFFFF
	byeWait = time.Second
)

// bye asks the dialer of an accepted connection to close it.
func (c *tcpConn) bye() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetReadDeadline(time.Now().Add(byeWait))
	hdr := c.buf[:8]
	binary.BigEndian.PutUint32(hdr, byeLen)
	c.conn.Write(hdr)
}

func pmiAddrKey(rank int) string { return "mpiaddr-" + strconv.Itoa(rank) }

// newTCPTransport performs the socket wire-up for one rank: listen, then one
// PMI exchange that publishes the address and returns once every rank's
// address is known.
func newTCPTransport(pmiAddr, kvsName string, rank int, q *matchQueue) (*tcpTransport, error) {
	ln, err := listenConfig.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mpi: listen: %w", err)
	}
	pc, err := pmi.DialFence(pmiAddr, kvsName, rank, pmiAddrKey(rank), ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	t := &tcpTransport{
		rank:  rank,
		size:  pc.Size(),
		q:     q,
		pc:    pc,
		ln:    ln,
		peers: make([]*tcpConn, pc.Size()),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *tcpTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		connsAccepted.Inc()
		t.mu.Lock()
		if t.done {
			conn.Close()
		} else {
			t.adopt(&tcpConn{conn: conn, hello: -1, accepted: true}, -1)
		}
		t.mu.Unlock()
	}
}

// adopt records an open connection for close and starts its reader; peer is
// the rank at the other end, -1 if the first frame is yet to say. Caller
// holds t.mu and has seen t.done false.
func (t *tcpTransport) adopt(c *tcpConn, peer int) {
	t.conns = append(t.conns, c)
	t.wg.Add(1)
	go t.readLoop(c, peer)
}

func (t *tcpTransport) readLoop(c *tcpConn, src int) {
	defer t.wg.Done()
	defer c.conn.Close()
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(c.conn)
	defer func() {
		r.Reset(nil)
		readerPool.Put(r)
	}()
	var hdr [8]byte
	if src < 0 {
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return
		}
		src = int(int32(binary.BigEndian.Uint32(hdr[:4])))
		if src < 0 || src >= t.size || src == t.rank {
			return
		}
		// Reply on this connection unless we dialed the peer in the meantime.
		t.mu.Lock()
		if t.peers[src] == nil {
			t.peers[src] = c
		}
		t.mu.Unlock()
	}
	// A peer sends to this rank on one connection for the whole job and ends
	// it only by closing or dying: once that connection is read out, receives
	// still waiting on the peer must fail. A connection this rank dialed and
	// never got a frame on is not it (the peer dialed its own, or sent nothing).
	inbound := c.accepted
	defer func() {
		if inbound {
			t.q.peerGone(src)
		}
	}()
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		tag := int(int32(binary.BigEndian.Uint32(hdr[4:8])))
		if n > maxMessage { // a bye, or a corrupt stream
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return
		}
		t.q.push(Message{Src: src, Tag: tag, Data: data})
		inbound = true
	}
}

// peer returns the connection to send to dst on, dialing if the pair has
// none yet.
func (t *tcpTransport) peer(dst int) (*tcpConn, error) {
	t.mu.Lock()
	c, done := t.peers[dst], t.done
	t.mu.Unlock()
	if done {
		return nil, ErrCommClosed
	}
	if c != nil {
		return c, nil
	}
	addr, err := t.pc.Get(pmiAddrKey(dst)) // from the bootstrap fence, no round trip
	if err != nil {
		return nil, fmt.Errorf("mpi: no address for rank %d: %w", dst, err)
	}
	conn, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: dial rank %d: %w", dst, err)
	}
	connsDialed.Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		conn.Close()
		return nil, ErrCommClosed
	}
	if existing := t.peers[dst]; existing != nil {
		// The peer's own connection arrived, or another sender dialed, while
		// we were connecting; ours has carried nothing yet.
		connsDiscarded.Inc()
		conn.Close()
		return existing, nil
	}
	c = &tcpConn{conn: conn, hello: t.rank}
	t.peers[dst] = c
	t.adopt(c, dst)
	return c, nil
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
	c, err := t.peer(dst)
	if err != nil {
		return err
	}
	return c.writeFrame(tag, data)
}

// close shuts the listener and every connection, inbound ones included, and
// returns once the accept loop and all readers have exited. Readers close
// their connection on the way out, which for an accepted connection is when
// the dialer has closed its end, or byeWait after asking it to.
func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	conns := t.conns
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		if c.accepted {
			c.bye()
		} else {
			c.conn.Close()
		}
	}
	t.wg.Wait()
	t.q.close()
	return nil
}
