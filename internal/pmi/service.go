package pmi

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Service is a PMI endpoint: one listener that serves every job attached to
// it, for as long as the process manager runs. A connection to it carries a
// sequence of sessions, one per job the client process takes part in:
//
//	cmd=init pmiid=<rank> kvsname=<kvs>   opens a session in job <kvs>
//	put / get / barrier_in / get_*        served by that job
//	cmd=finalize                          ends it; the connection then idles
//	cmd=init ...                          the same process's next job
//
// An init that arrives while a session is open ends that session first (its
// rank exited without finalizing). A refused init, or any other request
// outside a session, drops the connection.
type Service struct {
	ln   net.Listener
	addr string
	only *Server // a private endpoint's one job: its ranks need not name it

	mu     sync.Mutex
	jobs   map[string]*Server // attached jobs by KVS name
	conns  map[*serverConn]struct{}
	closed bool
}

// NewService starts an endpoint on addr (use "127.0.0.1:0" for an ephemeral
// port). Jobs join it with Attach and leave it with Server.Close.
func NewService(addr string) (*Service, error) { return newService(addr, nil) }

// newService starts an endpoint; a non-nil only makes it that job's private
// one.
func newService(addr string, only *Server) (*Service, error) {
	ln, err := listenConfig.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, err
	}
	sv := &Service{
		ln:    ln,
		addr:  ln.Addr().String(),
		only:  only,
		jobs:  make(map[string]*Server),
		conns: make(map[*serverConn]struct{}),
	}
	if only != nil {
		if err := sv.Attach(only); err != nil {
			ln.Close()
			return nil, err
		}
	}
	go sv.acceptLoop()
	return sv, nil
}

// Addr returns the address ranks dial, the same for every attached job.
func (sv *Service) Addr() string { return sv.addr }

// Attach makes s reachable through the endpoint under its KVS name, until
// s.Close. A Server attaches once in its life.
func (sv *Service) Attach(s *Server) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.svc != nil || s.closed {
		return fmt.Errorf("pmi: job %q is already attached or closed", s.kvsName)
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return ErrClosed
	}
	if sv.jobs[s.kvsName] != nil {
		return fmt.Errorf("pmi: kvs name %q is in use", s.kvsName)
	}
	sv.jobs[s.kvsName] = s
	s.svc, s.attachAt = sv, time.Now()
	return nil
}

func (sv *Service) detach(s *Server) {
	sv.mu.Lock()
	if sv.jobs[s.kvsName] == s {
		delete(sv.jobs, s.kvsName)
	}
	sv.mu.Unlock()
}

// Close shuts the listener and every connection. Attached jobs stay open;
// their ranks see the connections fail.
func (sv *Service) Close() error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil
	}
	sv.closed = true
	conns := make([]*serverConn, 0, len(sv.conns))
	for c := range sv.conns {
		conns = append(conns, c)
	}
	sv.mu.Unlock()
	for _, c := range conns {
		c.conn.Close()
	}
	return sv.ln.Close()
}

func (sv *Service) acceptLoop() {
	for {
		conn, err := sv.ln.Accept()
		if err != nil {
			return
		}
		sc := &serverConn{conn: conn}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			conn.Close()
			return
		}
		sv.conns[sc] = struct{}{}
		sv.mu.Unlock()
		connsAccepted.Inc()
		connsOpen.Add(1)
		go sv.serve(sc)
	}
}

// serverConn is one client connection and the session it carries now. Replies
// collect in out and leave in one write: when the connection's pipelined input
// is drained, or, for a rank waiting in a barrier, together with the release.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
	out  []byte

	// The open session. job and rank belong to the serving goroutine; held
	// (the rank waits in a barrier) is guarded by job.mu.
	job  *Server
	rank int
	held bool
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

// serve is the session loop: it handles one connection until EOF, an error or
// a request that drops it.
func (sv *Service) serve(sc *serverConn) {
	r := bufio.NewReaderSize(sc.conn, 512) // a rank's requests are short
	defer func() {
		if sc.job != nil {
			sc.job.leave(sc, false)
		}
		sc.conn.Close()
		sv.mu.Lock()
		delete(sv.conns, sc)
		sv.mu.Unlock()
		connsOpen.Add(-1)
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
		drop, held := sv.request(sc, &rec)
		if drop {
			sc.flush(nil)
			return
		}
		if r.Buffered() == 0 && !held {
			sc.flush(nil)
		}
	}
}

// request routes one request: init opens a session, everything else goes to
// the job of the open one.
func (sv *Service) request(sc *serverConn, rec *record) (drop, held bool) {
	if string(rec.cmd) != "init" {
		if sc.job == nil {
			sc.reply("error", "msg", "no_session")
			return true, false
		}
		return sc.job.dispatch(sc, rec)
	}
	if sc.job != nil {
		sc.job.leave(sc, false)
	}
	refused := "unknown_kvs"
	if job := sv.lookup(rec.get("kvsname")); job != nil {
		rank, err := strconv.Atoi(string(rec.get("pmiid")))
		if err != nil {
			rank = -1
		}
		refused = job.join(sc, rank)
	}
	if refused != "" {
		sc.reply("response_to_init", "rc", "-1", "msg", refused)
		return true, false
	}
	return false, false
}

// lookup resolves the job an init names; without a name, a private endpoint's
// only job.
func (sv *Service) lookup(name []byte) *Server {
	if name == nil {
		return sv.only
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.jobs[string(name)]
}
