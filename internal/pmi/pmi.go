// Package pmi implements a PMI-1-style Process Management Interface: the
// protocol an MPI process uses to talk to its process manager during startup.
// MPICH2's Hydra proxies carry exactly this service in the systems the paper
// builds on; here the server side is embedded in our mpiexec equivalent
// (internal/hydra) and the client side in our MPI library (internal/mpi).
//
// The wire format follows PMI-1: newline-terminated records of
// space-separated key=value pairs, beginning with cmd=<name>. A Server is one
// job (one key-value space, one barrier group), mirroring the
// one-mpiexec-per-job structure of JETS; a Service is the endpoint, one
// listener that serves every job attached to it and outlives them all.
//
// Four departures from PMI-1 keep a rank's bootstrap to one exchange on a
// connection it may already hold, and its exit to none (DESIGN.md,
// "Gang-launch fast path"): a pipelined batch of requests is answered with one
// write; barrier_out carries the fence, every key=value put since the previous
// release, which clients keep; a connection carries a sequence of sessions,
// each opened by an init that names its job, so a process keeps the connection
// for its next job; and a rank that finalizes on a kept connection says
// nothing, its next init (or the connection's end) ending the session.
package pmi

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jets/internal/obs"
)

// Package-level instrumentation, shared by every PMI endpoint, job and client
// in the process. It works detached; RegisterMetrics exports it through a
// registry.
var (
	wireupHist = obs.NewHist("jets_pmi_wireup_seconds",
		"time from a job's attach to its endpoint to its last rank's init (MPI_Init wire-up)", nil)
	barrierHist = obs.NewHist("jets_pmi_barrier_seconds",
		"PMI barrier span from first barrier_in to the release broadcast", nil)
	connsAccepted = obs.NewCounter("jets_pmi_connections_accepted_total",
		"TCP connections accepted by PMI endpoints (a rank of the endpoint's own process takes a pipe)")
	connsOpen = obs.NewGauge("jets_pmi_connections_open",
		"connections open at PMI endpoints, TCP or pipe, idle between jobs or in a session")
	sessionsTotal = obs.NewCounter("jets_pmi_sessions_total",
		"PMI sessions opened (one per rank that initialised in a job)")
	staleRedials = obs.NewCounter("jets_pmi_stale_redials_total",
		"bootstraps that found their kept connection cut and ran again on a fresh dial")
)

// RegisterMetrics exports this package's PMI instrumentation.
func RegisterMetrics(reg *obs.Registry) {
	reg.Register(wireupHist, barrierHist, connsAccepted, connsOpen, sessionsTotal, staleRedials, obs.AcceptErrors)
}

// Environment variable names used to bootstrap a PMI client, following the
// PMI_RANK convention the paper exposes to wrapper scripts (§5.2).
const (
	EnvPort = "PMI_PORT"
	EnvRank = "PMI_RANK"
	EnvSize = "PMI_SIZE"
	EnvKVS  = "PMI_KVSNAME"
)

// ErrKeyNotFound is returned by Get when the key has not been Put. Clients
// are expected to Barrier between the put and get phases of wire-up.
var ErrKeyNotFound = errors.New("pmi: key not found")

// ErrClosed is returned on operations after Finalize or server shutdown.
var ErrClosed = errors.New("pmi: connection closed")

// These are loopback control connections whose both ends notice a dead peer
// at once; keep-alive would only add setsockopt calls to every dial and accept.
var (
	listenConfig = net.ListenConfig{KeepAlive: -1}
	dialer       = net.Dialer{Timeout: 10 * time.Second, KeepAlive: -1}
)

// record is one parsed wire line: the command and the key=value fields after
// it, in wire order. Both alias the line they were parsed from.
type record struct {
	cmd    []byte
	fields []field
}

type field struct{ key, val []byte }

// parse splits line into r, reusing r's field storage. cmd must come first,
// as PMI-1 writes it.
func (r *record) parse(line []byte) error {
	r.cmd, r.fields = nil, r.fields[:0]
	for {
		line = bytes.TrimLeft(line, " \t")
		if len(line) == 0 {
			break
		}
		f := line
		if i := bytes.IndexAny(line, " \t"); i >= 0 {
			f, line = line[:i], line[i:]
		} else {
			line = nil
		}
		i := bytes.IndexByte(f, '=')
		if i < 0 {
			return fmt.Errorf("pmi: malformed field %q", f)
		}
		if r.cmd == nil {
			if string(f[:i]) != "cmd" {
				break
			}
			r.cmd = f[i+1:]
			continue
		}
		r.fields = append(r.fields, field{f[:i], f[i+1:]})
	}
	if r.cmd == nil {
		return errors.New("pmi: record does not begin with cmd")
	}
	return nil
}

// get returns the value of the first field named key, or nil.
func (r *record) get(key string) []byte {
	for _, f := range r.fields {
		if string(f.key) == key {
			return f.val
		}
	}
	return nil
}

// appendRecord appends one wire line: cmd, then kv as alternating keys and
// values.
func appendRecord(dst []byte, cmd string, kv ...string) []byte {
	dst = append(append(dst, "cmd="...), cmd...)
	for i := 0; i+1 < len(kv); i += 2 {
		dst = append(append(append(append(dst, ' '), kv[i]...), '='), kv[i+1]...)
	}
	return append(dst, '\n')
}

// readLine returns the next line without its newline. The result aliases r's
// buffer unless the line is longer than that buffer.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		head := append([]byte(nil), line...) // the next read reuses the buffer
		line, err = r.ReadBytes('\n')
		line = append(head, line...)
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func validToken(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t\n=")
}

// ---------------------------------------------------------------------------
// Server

// Server is the process-manager side of PMI for a single job: one key-value
// space and one barrier group. It owns no socket; its ranks reach it through
// the Service it is attached to.
type Server struct {
	kvsName string
	size    int

	mu           sync.Mutex
	svc          *Service // the endpoint this job is attached to
	attachAt     time.Time
	kvs          map[string]string
	fence        []string // keys and values put since the last barrier release
	barrierN     int
	barrierStart time.Time
	ranks        []rankState
	inited       int // distinct ranks that have initialised
	closed       bool
	onWired      func() // fired once, outside mu, when the last rank initialises
}

// rankState is what a job remembers of one rank: whether it has initialised
// (a rank does so once per job) and the connection its session is on now.
type rankState struct {
	inited bool
	sess   *serverConn
}

// NewServer creates a PMI server for a job of the given size. kvsName must
// be a token without spaces.
func NewServer(kvsName string, size int) (*Server, error) {
	if !validToken(kvsName) {
		return nil, fmt.Errorf("pmi: invalid kvs name %q", kvsName)
	}
	if size <= 0 {
		return nil, fmt.Errorf("pmi: invalid size %d", size)
	}
	return &Server{
		kvsName: kvsName,
		size:    size,
		kvs:     make(map[string]string),
		ranks:   make([]rankState, size),
	}, nil
}

// Listen gives the job an endpoint of its own: a Service on addr (use
// "127.0.0.1:0" for an ephemeral port) that serves only this job, so a rank
// may leave kvsname out of its init, and that Close shuts with the job. It
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	sv, err := newService(addr, s)
	if err != nil {
		return "", err
	}
	return sv.addr, nil
}

// join opens rank's session on sc. It returns the reason when the job refuses.
func (s *Server) join(sc *serverConn, rank int) (refused string) {
	s.mu.Lock()
	switch {
	case s.closed:
		refused = "job_closed"
	case rank < 0 || rank >= s.size:
		refused = "bad_pmiid"
	case s.ranks[rank].inited:
		// Also what makes a client's redial safe: a rank the job has already
		// counted cannot be counted again.
		refused = "rank_already_initialised"
	}
	if refused != "" {
		s.mu.Unlock()
		return refused
	}
	s.ranks[rank] = rankState{inited: true, sess: sc}
	sc.job, sc.rank = s, rank
	s.inited++
	var fire func()
	if s.inited == s.size { // once: a rank is counted once
		wireupHist.Observe(time.Since(s.attachAt))
		fire = s.onWired
	}
	s.mu.Unlock()
	sessionsTotal.Inc()
	sc.reply("response_to_init", "rc", "0", "size", strconv.Itoa(s.size),
		"rank", strconv.Itoa(rank), "kvsname", s.kvsName)
	if fire != nil {
		fire()
	}
	return ""
}

// leave ends sc's session with the job.
func (s *Server) leave(sc *serverConn) {
	s.mu.Lock()
	if s.ranks[sc.rank].sess == sc {
		s.ranks[sc.rank].sess = nil
	}
	sc.held = false
	s.mu.Unlock()
	sc.job = nil
}

// dispatch serves one request of sc's session. drop ends the connection; held
// means the rank now waits in a barrier, whose release will carry the replies
// collected so far.
func (s *Server) dispatch(sc *serverConn, rec *record) (drop, held bool) {
	if string(rec.cmd) == "finalize" {
		// Served even after Close: the connection it arrives on is healthy.
		s.leave(sc)
		return false, false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// The job was aborted; drop the connection so the client's next
		// read fails instead of waiting on a barrier that can never
		// complete.
		return true, false
	}
	switch string(rec.cmd) {
	case "get_maxes":
		sc.reply("maxes", "kvsname_max", "256", "keylen_max", "256", "vallen_max", "1024")
	case "get_appnum":
		sc.reply("appnum", "appnum", "0")
	case "get_universe_size":
		sc.reply("universe_size", "size", strconv.Itoa(s.size))
	case "put":
		key, val := rec.get("key"), rec.get("value")
		if !s.ownKVS(rec) || len(key) == 0 || len(val) == 0 {
			sc.reply("put_result", "rc", "-1", "msg", "unknown_kvs_or_empty_token")
			return false, false
		}
		k, v := string(key), string(val)
		s.mu.Lock()
		s.kvs[k] = v
		s.fence = append(s.fence, k, v)
		s.mu.Unlock()
		sc.reply("put_result", "rc", "0")
	case "get":
		s.mu.Lock()
		v, ok := s.kvs[string(rec.get("key"))]
		s.mu.Unlock()
		if !s.ownKVS(rec) || !ok {
			sc.reply("get_result", "rc", "-1")
			return false, false
		}
		sc.reply("get_result", "rc", "0", "value", v)
	case "barrier_in":
		return s.barrierIn(sc)
	default:
		sc.reply("error", "msg", "unknown_command_"+string(rec.cmd))
	}
	return false, false
}

// ownKVS reports whether the request addresses this job's key-value space,
// the only one a session may touch; a put pipelined behind init cannot name
// it yet and leaves kvsname out.
func (s *Server) ownKVS(rec *record) bool {
	name := rec.get("kvsname")
	return name == nil || string(name) == s.kvsName
}

// barrierIn counts sc's rank into the barrier; the last one releases every
// rank with a barrier_out that lists the fence.
func (s *Server) barrierIn(sc *serverConn) (drop, held bool) {
	s.mu.Lock()
	if s.closed {
		// Close landed after dispatch looked: a rank counted now would wait
		// for a release nobody is left to cut it out of.
		s.mu.Unlock()
		return true, false
	}
	if s.barrierN == 0 {
		s.barrierStart = time.Now()
	}
	s.barrierN++
	if s.barrierN < s.size {
		sc.held = true
		s.mu.Unlock()
		return false, true
	}
	s.barrierN = 0
	barrierHist.Observe(time.Since(s.barrierStart))
	release := appendRecord(nil, "barrier_out", s.fence...)
	s.fence = s.fence[:0]
	conns := make([]*serverConn, 0, s.size)
	for i := range s.ranks {
		if c := s.ranks[i].sess; c != nil {
			c.held = false
			conns = append(conns, c)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.flush(release)
	}
	return false, true
}

// OnWired registers fn to run once every rank has initialised (the MPI_Init
// wire-up point). If the server is already wired, fn runs immediately. The
// callback executes outside the server lock.
func (s *Server) OnWired(fn func()) {
	s.mu.Lock()
	if s.inited == s.size {
		s.mu.Unlock()
		if fn != nil {
			fn()
		}
		return
	}
	s.onWired = fn
	s.mu.Unlock()
}

// KVSLen reports the number of keys in the key-value space (for tests and
// diagnostics).
func (s *Server) KVSLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kvs)
}

// Close ends the job: it leaves its Service, and the connections of ranks
// waiting in a barrier, which can no longer release, are cut so the ranks
// fail instead of hanging. Any other rank's connection is left alone, being
// the client's to keep: its next init or finalize is still served, and any
// other request from it drops the connection. A private endpoint (Listen) closes with the
// job, connections and all.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var cut []*serverConn
	for i := range s.ranks {
		if c := s.ranks[i].sess; c != nil && c.held {
			cut = append(cut, c)
		}
	}
	svc := s.svc
	s.mu.Unlock()
	for _, c := range cut {
		c.conn.Close()
	}
	switch {
	case svc == nil:
	case svc.only == s:
		return svc.Close()
	default:
		svc.detach(s)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Client

// Client is the MPI-process side of PMI. Its methods may be called from
// several goroutines; each call holds the connection for its whole exchange.
type Client struct {
	mu       sync.Mutex
	conn     io.ReadWriteCloser
	r        *bufio.Reader
	out      []byte // requests not yet written
	line     []byte // the last reply, parsed in rec
	rec      record
	fence    []byte // the last barrier release, parsed in fenceRec
	fenceRec record
	closed   bool
	answered bool   // the server has replied to something on this connection
	keep     string // the shared endpoint's address; empty on a private one

	rank    int
	size    int
	kvsName string
}

// Dial connects to a job's private PMI endpoint (Server.Listen) and performs
// the init handshake for the given rank.
func Dial(addr string, rank int) (*Client, error) {
	return open(addr, "", rank, (*Client).awaitInit)
}

// DialFence is init, Put(key, value) and Barrier in one exchange: the three
// requests leave in a single write, and the call returns when the barrier
// releases, with every key put before it (the fence) already cached for Get.
// It is the whole PMI side of a rank's MPI_Init.
//
// A non-empty kvsName names the job at an endpoint shared by many (a Service,
// PMI_KVSNAME in the rank's environment). The exchange then runs on a
// connection this process kept from an earlier job there, if it has one, and
// Finalize keeps the connection for the next. With an empty kvsName the
// endpoint is the job's own, dialed now and closed by Finalize.
func DialFence(addr, kvsName string, rank int, key, value string) (*Client, error) {
	if !validToken(key) || !validToken(value) {
		return nil, fmt.Errorf("pmi: invalid token in put %q=%q", key, value)
	}
	return open(addr, kvsName, rank, func(c *Client) error {
		c.out = appendRecord(c.out, "put", "key", key, "value", value)
		c.out = appendRecord(c.out, "barrier_in")
		if err := c.awaitInit(); err != nil {
			return err
		}
		if err := c.awaitOK("put_result"); err != nil {
			return err
		}
		return c.awaitBarrier()
	})
}

// open queues the init request on a connection to addr and runs the rest of
// the bootstrap: on a kept connection first, when the endpoint is shared and
// there is one, else on a fresh one (see connect).
//
// A kept connection the server has cut since it was parked fails its first
// exchange without a reply; only then is the bootstrap run again, once, on a
// fresh dial. No reply does not mean the server saw nothing: replies to the
// pipelined requests are held until the barrier releases, so the rank may
// already be counted. The second init is safe because the server refuses a
// rank it has counted; the job then fails rather than release a barrier on a
// rank counted twice.
func open(addr, kvsName string, rank int, bootstrap func(*Client) error) (*Client, error) {
	var k keptConn
	kept := false
	if kvsName != "" {
		k, kept = takeIdle(addr)
	}
	for {
		if !kept {
			conn, err := connect(addr)
			if err != nil {
				return nil, err
			}
			// 1 KiB holds a fence of ~30 ranks' addresses; readLine takes
			// longer ones.
			k = keptConn{conn: conn, r: bufio.NewReaderSize(conn, 1<<10)}
		}
		c := &Client{conn: k.conn, r: k.r, out: k.out[:0], fence: k.fence[:0],
			rec: record{fields: k.fields[:0]}, fenceRec: record{fields: k.fenceFields[:0]}, rank: rank}
		if kvsName == "" {
			c.out = appendRecord(c.out, "init", "pmiid", strconv.Itoa(rank))
		} else {
			c.keep = addr
			c.out = appendRecord(c.out, "init", "pmiid", strconv.Itoa(rank), "kvsname", kvsName)
		}
		err := bootstrap(c)
		if err == nil {
			return c, nil
		}
		k.conn.Close()
		if !kept || c.answered {
			return nil, err
		}
		staleRedials.Inc()
		kept = false
	}
}

// connect opens a connection to the endpoint at addr: a pipe when this
// process serves it (a Service from NewService), else a TCP dial. Private
// endpoints, and every endpoint of another process, are dialed.
func connect(addr string) (io.ReadWriteCloser, error) {
	local.Lock()
	sv := local.svcs[addr]
	local.Unlock()
	if sv != nil {
		return sv.pipe()
	}
	return dialer.Dial("tcp", addr)
}

// keptConn is a connection between jobs, with its reader (empty: a connection
// is parked only when nothing is buffered) and the buffers its last client
// grew, for the next to reuse.
type keptConn struct {
	addr                string
	conn                io.ReadWriteCloser
	r                   *bufio.Reader
	out, fence          []byte
	fields, fenceFields []field
}

// idle holds the connections to shared endpoints this process has finalized
// on and not closed, newest last. A forked rank's list is empty when it
// starts and dies with it; a process that runs rank after rank (in-process
// workers) settles at about one connection per worker. maxIdle is a constant
// because it is a leak guard, not a tuning knob: the live part of the list
// cannot outgrow the number of ranks the process runs at once, and what the
// cap evicts is the oldest entry, which is closed.
var idle struct {
	sync.Mutex
	conns []keptConn
}

const maxIdle = 64

func takeIdle(addr string) (keptConn, bool) {
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.conns) - 1; i >= 0; i-- {
		if k := idle.conns[i]; k.addr == addr {
			idle.conns = slices.Delete(idle.conns, i, i+1)
			return k, true
		}
	}
	return keptConn{}, false
}

// park keeps k for this process's next job at k.addr. A full list drops its
// oldest entry, so connections to an endpoint that is gone age out.
func park(k keptConn) {
	idle.Lock()
	var evicted io.Closer
	if len(idle.conns) == maxIdle {
		evicted = idle.conns[0].conn
		idle.conns = slices.Delete(idle.conns, 0, 1)
	}
	idle.conns = append(idle.conns, k)
	idle.Unlock()
	if evicted != nil {
		evicted.Close()
	}
}

// Env renders the client bootstrap environment for a child process.
func Env(addr string, rank, size int, kvsName string) []string {
	return []string{
		EnvPort + "=" + addr,
		EnvRank + "=" + strconv.Itoa(rank),
		EnvSize + "=" + strconv.Itoa(size),
		EnvKVS + "=" + kvsName,
	}
}

// await writes the queued requests, if any, and reads the next reply, which
// must be wantCmd: a connection's replies arrive in request order, and a
// barrier_out only after this client's own barrier_in. The reply is left in
// c.line and c.rec, which alias the reader's buffer, until the next await.
// Caller holds c.mu (or owns c exclusively).
func (c *Client) await(wantCmd string) error {
	if len(c.out) > 0 {
		_, err := c.conn.Write(c.out)
		c.out = c.out[:0]
		if err != nil {
			return err
		}
	}
	line, err := readLine(c.r)
	if err != nil {
		return fmt.Errorf("pmi: read: %w", err)
	}
	c.answered, c.line = true, line
	if err := c.rec.parse(line); err != nil {
		return err
	}
	if string(c.rec.cmd) != wantCmd {
		return fmt.Errorf("pmi: got %q waiting for %s", line, wantCmd)
	}
	return nil
}

// awaitOK is await for a reply that carries a return code, which must be 0.
func (c *Client) awaitOK(wantCmd string) error {
	if err := c.await(wantCmd); err != nil {
		return err
	}
	if string(c.rec.get("rc")) != "0" {
		return fmt.Errorf("pmi: %s: rejected: %s", wantCmd, c.rec.get("msg"))
	}
	return nil
}

func (c *Client) awaitInit() error {
	if err := c.awaitOK("response_to_init"); err != nil {
		return err
	}
	size, err := strconv.Atoi(string(c.rec.get("size")))
	if err != nil {
		return fmt.Errorf("pmi: bad size in init response: %v", err)
	}
	c.size, c.kvsName = size, string(c.rec.get("kvsname"))
	return nil
}

// awaitBarrier waits for the release and keeps a copy of it for Get.
func (c *Client) awaitBarrier() error {
	if err := c.await("barrier_out"); err != nil {
		return err
	}
	c.fence = append(c.fence[:0], c.line...)
	return c.fenceRec.parse(c.fence)
}

// Rank returns this process's rank in the job.
func (c *Client) Rank() int { return c.rank }

// Size returns the number of processes in the job.
func (c *Client) Size() int { return c.size }

// KVSName returns the job's key-value-space name.
func (c *Client) KVSName() string { return c.kvsName }

// Put stores key=value in the job KVS. Keys and values must be tokens
// without whitespace or '='.
func (c *Client) Put(key, value string) error {
	if !validToken(key) || !validToken(value) {
		return fmt.Errorf("pmi: invalid token in put %q=%q", key, value)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = appendRecord(c.out, "put", "kvsname", c.kvsName, "key", key, "value", value)
	return c.awaitOK("put_result")
}

// Get fetches a key from the job KVS, returning ErrKeyNotFound if no rank
// has put it yet. A key in the fence of the last Barrier this client took part
// in is answered from it, without a round trip; a value overwritten since then
// shows at the next Barrier.
func (c *Client) Get(key string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.fenceRec.fields) - 1; i >= 0; i-- { // the last put wins
		if f := c.fenceRec.fields[i]; string(f.key) == key {
			return string(f.val), nil
		}
	}
	c.out = appendRecord(c.out, "get", "kvsname", c.kvsName, "key", key)
	if err := c.await("get_result"); err != nil {
		return "", err
	}
	if string(c.rec.get("rc")) != "0" {
		return "", ErrKeyNotFound
	}
	return string(c.rec.get("value")), nil
}

// Barrier blocks until all ranks in the job have entered the barrier.
func (c *Client) Barrier() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = appendRecord(c.out, "barrier_in")
	return c.awaitBarrier()
}

// Finalize ends this rank's session and writes nothing. The connection to a
// shared endpoint is kept for this process's next job there, whose init ends
// the session at the server, unless it holds input nobody asked for; any other
// connection is closed, and its end ends the session.
func (c *Client) Finalize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	if c.keep != "" && c.r.Buffered() == 0 {
		park(keptConn{addr: c.keep, conn: c.conn, r: c.r, out: c.out, fence: c.fence,
			fields: c.rec.fields, fenceFields: c.fenceRec.fields})
		return nil
	}
	return c.conn.Close()
}
