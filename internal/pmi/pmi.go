// Package pmi implements a PMI-1-style Process Management Interface: the
// protocol an MPI process uses to talk to its process manager during startup.
// MPICH2's Hydra proxies carry exactly this service in the systems the paper
// builds on; here the server side is embedded in our mpiexec equivalent
// (internal/hydra) and the client side in our MPI library (internal/mpi).
//
// The wire format follows PMI-1: newline-terminated records of
// space-separated key=value pairs, beginning with cmd=<name>. One server
// instance serves exactly one job (one key-value space, one barrier group),
// mirroring the one-mpiexec-per-job structure of JETS.
//
// Three departures from PMI-1 keep a rank's bootstrap to one exchange
// (DESIGN.md, "Gang-launch fast path"): a pipelined batch of requests is
// answered with one write; barrier_out carries the fence, every key=value put
// since the previous release, which clients cache; and finalize is one-way.
package pmi

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jets/internal/obs"
)

// Package-level instrumentation, shared by every PMI server in the process
// (one per in-flight MPI job). The histograms work detached; RegisterMetrics
// exports them through a registry.
var (
	wireupHist = obs.NewHist("jets_pmi_wireup_seconds",
		"time from PMI listen to all ranks connected (MPI_Init wire-up)", nil)
	barrierHist = obs.NewHist("jets_pmi_barrier_seconds",
		"PMI barrier span from first barrier_in to the release broadcast", nil)
)

// RegisterMetrics exports this package's PMI instrumentation.
func RegisterMetrics(reg *obs.Registry) { reg.Register(wireupHist, barrierHist) }

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

// Job connections live for milliseconds; enabling keep-alive would only add
// setsockopt calls to every dial and accept.
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

// Server is the process-manager side of PMI for a single job.
type Server struct {
	kvsName string
	size    int

	ln net.Listener

	mu           sync.Mutex
	kvs          map[string]string
	fence        []string // keys and values put since the last barrier release
	barrierN     int
	barrierStart time.Time
	conns        map[int]*serverConn // by rank
	finalized    int
	closed       bool
	listenAt     time.Time
	wired        bool   // every rank has connected at least once
	onWired      func() // fired once, outside mu, when wired flips

	doneCh chan struct{} // closed when all ranks finalize
	once   sync.Once
}

// serverConn is one rank's connection. Replies collect in out and leave in
// one write: when the connection's pipelined input is drained, or, for a rank
// waiting in a barrier, together with the release.
type serverConn struct {
	rank int
	conn net.Conn
	wmu  sync.Mutex
	out  []byte
}

func (sc *serverConn) reply(cmd string, kv ...string) {
	sc.wmu.Lock()
	sc.out = appendRecord(sc.out, cmd, kv...)
	sc.wmu.Unlock()
}

// flush writes the collected replies plus line. A write error is left for the
// connection's reader to find.
func (sc *serverConn) flush(line []byte) {
	sc.wmu.Lock()
	if sc.out = append(sc.out, line...); len(sc.out) > 0 {
		sc.conn.Write(sc.out)
		sc.out = sc.out[:0]
	}
	sc.wmu.Unlock()
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
		conns:   make(map[int]*serverConn),
		doneCh:  make(chan struct{}),
	}, nil
}

// Listen binds the server to addr (use "127.0.0.1:0" for an ephemeral port)
// and starts accepting clients. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := listenConfig.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.mu.Lock()
	s.listenAt = time.Now()
	s.mu.Unlock()
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection until EOF or finalize.
func (s *Server) serveConn(conn net.Conn) {
	sc := &serverConn{rank: -1, conn: conn}
	r := bufio.NewReaderSize(conn, 512) // a rank's requests are short
	defer func() {
		conn.Close()
		s.mu.Lock()
		if sc.rank >= 0 && s.conns[sc.rank] == sc {
			delete(s.conns, sc.rank)
		}
		s.mu.Unlock()
	}()
	var rec record
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		if err := rec.parse(line); err != nil {
			sc.reply("error", "msg", strings.ReplaceAll(err.Error(), " ", "_"))
			sc.flush(nil)
			return
		}
		done, held := s.dispatch(sc, &rec)
		if done {
			sc.flush(nil)
			return
		}
		if r.Buffered() == 0 && !held {
			sc.flush(nil)
		}
	}
}

// dispatch serves one request. done ends the connection; held means the rank
// now waits in a barrier, whose release will carry the replies collected so
// far.
func (s *Server) dispatch(sc *serverConn, rec *record) (done, held bool) {
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
	case "init":
		rank, err := strconv.Atoi(string(rec.get("pmiid")))
		if err != nil || rank < 0 || rank >= s.size {
			sc.reply("response_to_init", "rc", "-1", "msg", "bad_pmiid")
			return true, false
		}
		sc.rank = rank
		s.mu.Lock()
		s.conns[rank] = sc
		var fire func()
		if !s.wired && len(s.conns) == s.size {
			s.wired = true
			wireupHist.Observe(time.Since(s.listenAt))
			fire = s.onWired
		}
		s.mu.Unlock()
		sc.reply("response_to_init", "rc", "0", "size", strconv.Itoa(s.size),
			"rank", strconv.Itoa(rank), "kvsname", s.kvsName)
		if fire != nil {
			fire()
		}
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
		s.barrierIn()
		return false, true
	case "finalize":
		s.mu.Lock()
		s.finalized++
		all := s.finalized >= s.size
		s.mu.Unlock()
		if all {
			s.once.Do(func() { close(s.doneCh) })
		}
		return true, false
	default:
		sc.reply("error", "msg", "unknown_command_"+string(rec.cmd))
	}
	return false, false
}

// ownKVS reports whether the request addresses this job's key-value space,
// the only one a server holds; a put pipelined behind init cannot name it yet
// and leaves kvsname out.
func (s *Server) ownKVS(rec *record) bool {
	name := rec.get("kvsname")
	return name == nil || string(name) == s.kvsName
}

// barrierIn counts one rank into the barrier; the last one releases every
// rank with a barrier_out that lists the fence.
func (s *Server) barrierIn() {
	s.mu.Lock()
	if s.barrierN == 0 {
		s.barrierStart = time.Now()
	}
	s.barrierN++
	if s.barrierN < s.size {
		s.mu.Unlock()
		return
	}
	s.barrierN = 0
	barrierHist.Observe(time.Since(s.barrierStart))
	release := appendRecord(nil, "barrier_out", s.fence...)
	s.fence = s.fence[:0]
	conns := make([]*serverConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.flush(release)
	}
}

// Done returns a channel closed once every rank has finalized.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Wait blocks until all ranks finalize or the timeout elapses.
func (s *Server) Wait(timeout time.Duration) error {
	// An explicit timer, stopped on return: time.After would pin its timer
	// (and channel) until expiry even when all ranks finalize promptly, which
	// at many-parallel-task rates accumulates into real memory held for the
	// full timeout window.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.doneCh:
		return nil
	case <-t.C:
		return fmt.Errorf("pmi: server wait timed out after %v", timeout)
	}
}

// OnWired registers fn to run once every rank has connected (the MPI_Init
// wire-up point). If the server is already wired, fn runs immediately. The
// callback executes outside the server lock.
func (s *Server) OnWired(fn func()) {
	s.mu.Lock()
	if s.wired {
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

// Close shuts the listener and all client connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.conn.Close()
	}
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Client

// Client is the MPI-process side of PMI. Its methods may be called from
// several goroutines; each call holds the connection for its whole exchange.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	out    []byte // requests not yet written
	rec    record
	cache  map[string]string // keys delivered by barrier releases
	closed bool

	rank    int
	size    int
	kvsName string
}

// Dial connects to a PMI server and performs the init handshake for the
// given rank.
func Dial(addr string, rank int) (*Client, error) { return dial(addr, rank, (*Client).awaitInit) }

// DialFence is Dial, Put(key, value) and Barrier in one exchange: the three
// requests leave in a single write, and the call returns when the barrier
// releases, with every key put before it (the fence) already cached for Get.
// It is the whole PMI side of a rank's MPI_Init.
func DialFence(addr string, rank int, key, value string) (*Client, error) {
	if !validToken(key) || !validToken(value) {
		return nil, fmt.Errorf("pmi: invalid token in put %q=%q", key, value)
	}
	return dial(addr, rank, func(c *Client) error {
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

// dial connects, queues the init request and runs the rest of the bootstrap.
func dial(addr string, rank int, bootstrap func(*Client) error) (*Client, error) {
	conn, err := dialer.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// 1 KiB holds a fence of ~30 ranks' addresses; readLine takes longer ones.
	c := &Client{conn: conn, r: bufio.NewReaderSize(conn, 1<<10), rank: rank}
	c.out = appendRecord(c.out, "init", "pmiid", strconv.Itoa(rank))
	if err := bootstrap(c); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
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
// c.rec until the next await. Caller holds c.mu (or owns c exclusively).
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

func (c *Client) awaitBarrier() error {
	if err := c.await("barrier_out"); err != nil {
		return err
	}
	if c.cache == nil {
		c.cache = make(map[string]string, len(c.rec.fields))
	}
	for _, f := range c.rec.fields {
		c.cache[string(f.key)] = string(f.val)
	}
	return nil
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
// has put it yet. A key that was put before a Barrier this client took part
// in is answered from the fence that barrier delivered, without a round trip;
// a value overwritten since then shows at the next Barrier.
func (c *Client) Get(key string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.cache[key]; ok {
		return v, nil
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

// Finalize tells the server this rank is done and closes the connection. The
// server sends no acknowledgement, so this costs one write.
func (c *Client) Finalize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	_, err := c.conn.Write(appendRecord(c.out[:0], "finalize"))
	c.conn.Close()
	return err
}
