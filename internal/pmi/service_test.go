package pmi

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startService starts a shared endpoint that this process's ranks reach
// through pipes.
func startService(t *testing.T) *Service {
	t.Helper()
	sv, err := NewService("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(sv) })
	return sv
}

// closeService closes sv and the connections this process kept to it, so a
// later test's endpoint that gets the same port does not find them.
func closeService(sv *Service) {
	sv.Close()
	for k, ok := takeIdle(sv.Addr()); ok; k, ok = takeIdle(sv.Addr()) {
		k.conn.Close()
	}
}

// startRemoteService starts a shared endpoint that plays one in another
// process: it stays out of the local table, so this process's ranks dial it
// over TCP, as forked ranks and ranks on external workers dial theirs.
func startRemoteService(t *testing.T) *Service {
	t.Helper()
	sv, err := newService("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(sv) })
	return sv
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(ents)
}

func attachJob(t *testing.T, sv *Service, kvs string, size int) *Server {
	t.Helper()
	s, err := NewServer(kvs, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Attach(s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// wire is a raw connection for tests that speak the protocol by hand.
type wire struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialWire(t *testing.T, addr string) *wire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wire{t, conn, bufio.NewReader(conn)}
}

func (w *wire) send(lines ...string) {
	w.t.Helper()
	if _, err := w.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		w.t.Fatal(err)
	}
}

func (w *wire) expect(want string) {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := w.r.ReadString('\n')
	if err != nil || got != want+"\n" {
		w.t.Fatalf("got %q, %v; want %q", got, err, want)
	}
}

func (w *wire) expectEOF() {
	w.t.Helper()
	w.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := w.r.ReadString('\n'); err != io.EOF {
		w.t.Fatalf("got %q, %v; want EOF", got, err)
	}
}

// waitFor polls cond under s.mu.
func waitFor(t *testing.T, s *Server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// cutAll closes every connection the service holds, server side, as an abort
// or a restart would, and waits until the service has forgotten them.
func cutAll(t *testing.T, sv *Service) {
	t.Helper()
	sv.mu.Lock()
	for sc := range sv.conns {
		sc.conn.Close()
	}
	sv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sv.mu.Lock()
		n := len(sv.conns)
		sv.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cut connections still registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWiredCountsRanksNotConnections: wire-up is "every rank has initialised",
// not "every rank is connected right now". Rank 0 comes and goes before rank 1
// arrives; the callback must still fire, once.
func TestWiredCountsRanksNotConnections(t *testing.T) {
	s, addr := startServer(t, 2)
	var fired atomic.Int32
	s.OnWired(func() { fired.Add(1) })
	observed := wireupHist.Count()
	c0, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Finalize(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, "rank 0's session to end", func() bool { return s.ranks[0].sess == nil })
	if fired.Load() != 0 {
		t.Fatal("wired before the last rank initialised")
	}
	c1, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Finalize()
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnWired fired %d times, want 1", n)
	}
	if got := wireupHist.Count() - observed; got != 1 {
		t.Fatalf("jets_pmi_wireup_seconds observed %d times, want 1", got)
	}
}

// TestSessionsInterleavedOnOneConnection runs ranks of two jobs one after the
// other on a single connection. Each session sees its own job's key-value
// space and no other, whether it names one or not. A session ends at the next
// init, at a finalize, or at the connection's end.
func TestSessionsInterleavedOnOneConnection(t *testing.T) {
	sv := startService(t)
	a := attachJob(t, sv, "job_a", 2)
	b := attachJob(t, sv, "job_b", 1)
	w := dialWire(t, sv.Addr())
	open := func(s *Server, rank int) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.ranks[rank].sess != nil
	}

	w.send("cmd=init pmiid=0 kvsname=job_a", "cmd=put key=x value=from_a")
	w.expect("cmd=response_to_init rc=0 size=2 rank=0 kvsname=job_a")
	w.expect("cmd=put_result rc=0")
	if !open(a, 0) {
		t.Fatal("job_a's rank 0 lost its session before the next init")
	}

	w.send("cmd=init pmiid=0 kvsname=job_b", "cmd=get key=x")
	w.expect("cmd=response_to_init rc=0 size=1 rank=0 kvsname=job_b")
	w.expect("cmd=get_result rc=-1") // job_a's key is not in job_b
	w.send("cmd=get kvsname=job_a key=x")
	w.expect("cmd=get_result rc=-1") // nor reachable by naming job_a
	w.send("cmd=put kvsname=job_a key=y value=from_b")
	w.expect("cmd=put_result rc=-1 msg=unknown_kvs_or_empty_token")
	w.send("cmd=put kvsname=job_b key=x value=from_b", "cmd=barrier_in")
	w.expect("cmd=put_result rc=0")
	w.expect("cmd=barrier_out x=from_b")
	w.send("cmd=finalize")

	// Back in job_a, as its other rank.
	w.send("cmd=init pmiid=1 kvsname=job_a", "cmd=get key=x", "cmd=get key=y")
	w.expect("cmd=response_to_init rc=0 size=2 rank=1 kvsname=job_a")
	w.expect("cmd=get_result rc=0 value=from_a")
	w.expect("cmd=get_result rc=-1")
	if open(a, 0) || open(b, 0) || !open(a, 1) {
		t.Fatalf("open sessions: job_a %v %v, job_b %v; want only job_a's rank 1",
			open(a, 0), open(a, 1), open(b, 0))
	}
	w.conn.Close()
	waitFor(t, a, "the connection's end to end rank 1's session", func() bool { return a.ranks[1].sess == nil })
	if a.KVSLen() != 1 || b.KVSLen() != 1 {
		t.Fatalf("kvs sizes a=%d b=%d, want 1 and 1", a.KVSLen(), b.KVSLen())
	}
}

// TestInitRefusals: the ways an init can fail, each answered rc=-1 and a
// dropped connection.
func TestInitRefusals(t *testing.T) {
	sv := startService(t)
	attachJob(t, sv, "job", 2)
	first := dialWire(t, sv.Addr())
	first.send("cmd=init pmiid=0 kvsname=job")
	first.expect("cmd=response_to_init rc=0 size=2 rank=0 kvsname=job")
	for _, tc := range []struct{ name, init, msg string }{
		{"duplicate rank", "cmd=init pmiid=0 kvsname=job", "rank_already_initialised"},
		{"rank out of range", "cmd=init pmiid=2 kvsname=job", "bad_pmiid"},
		{"no rank", "cmd=init kvsname=job", "bad_pmiid"},
		{"unknown kvs", "cmd=init pmiid=1 kvsname=other", "unknown_kvs"},
		{"no kvs on a shared endpoint", "cmd=init pmiid=1", "unknown_kvs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := dialWire(t, sv.Addr())
			w.send(tc.init, "cmd=put key=k value=v", "cmd=barrier_in")
			w.expect("cmd=response_to_init rc=-1 msg=" + tc.msg)
			w.expectEOF()
		})
	}
	t.Run("request outside a session", func(t *testing.T) {
		w := dialWire(t, sv.Addr())
		w.send("cmd=put key=k value=v")
		w.expect("cmd=error msg=no_session")
		w.expectEOF()
	})
	// None of that disturbed the rank that did get in.
	first.send("cmd=get_universe_size")
	first.expect("cmd=universe_size size=2")
}

// TestInitMidSessionEndsOldSession: a process whose rank exited without
// finalizing starts its next job on the same connection. The old job loses
// the session (no finalize is invented for it); the new one works.
func TestInitMidSessionEndsOldSession(t *testing.T) {
	sv := startService(t)
	a := attachJob(t, sv, "job_a", 2)
	b := attachJob(t, sv, "job_b", 1)
	w := dialWire(t, sv.Addr())
	w.send("cmd=init pmiid=0 kvsname=job_a")
	w.expect("cmd=response_to_init rc=0 size=2 rank=0 kvsname=job_a")
	w.send("cmd=init pmiid=0 kvsname=job_b", "cmd=put key=k value=v", "cmd=barrier_in")
	w.expect("cmd=response_to_init rc=0 size=1 rank=0 kvsname=job_b")
	w.expect("cmd=put_result rc=0")
	w.expect("cmd=barrier_out k=v")
	a.mu.Lock()
	sess := a.ranks[0].sess
	a.mu.Unlock()
	if sess != nil {
		t.Fatalf("job_a after the rank moved on: session=%v, want none", sess)
	}
	if a.KVSLen() != 0 || b.KVSLen() != 1 {
		t.Fatalf("kvs sizes a=%d b=%d: the put went to the wrong job", a.KVSLen(), b.KVSLen())
	}
}

// TestKeptConnectionServesNextJob runs 500 jobs of 2, 4 and 8 ranks back to
// back on 8 workers, at an endpoint in another process. The ranks find the
// connection their worker's previous rank finalized on, so the endpoint
// accepts no more connections than there are workers. A rank's Finalize
// writes nothing: its session stays open until the next init on that
// connection ends it.
func TestKeptConnectionServesNextJob(t *testing.T) {
	const workers, jobs = 8, 500
	sv := startRemoteService(t)
	accepted, sessions, redials := connsAccepted.Value(), sessionsTotal.Value(), staleRedials.Value()
	ranks := 0
	for j := 0; j < jobs; j++ {
		n := []int{2, 4, 8}[j%3]
		ranks += n
		kvs := fmt.Sprintf("job_%d", j)
		s := attachJob(t, sv, kvs, n)
		errs := make(chan error, n)
		for rank := 0; rank < n; rank++ {
			go func(rank int) {
				c, err := DialFence(sv.Addr(), kvs, rank, fmt.Sprintf("addr-%d", rank), fmt.Sprintf("h%d", rank))
				if err == nil {
					for p := 0; p < n && err == nil; p++ {
						var v string
						if v, err = c.Get(fmt.Sprintf("addr-%d", p)); err == nil && v != fmt.Sprintf("h%d", p) {
							err = fmt.Errorf("job %d rank %d: addr-%d = %q", j, rank, p, v)
						}
					}
					if ferr := c.Finalize(); err == nil {
						err = ferr
					}
				}
				errs <- err
			}(rank)
		}
		for rank := 0; rank < n; rank++ {
			if err := <-errs; err != nil {
				t.Fatalf("job %d: %v", j, err)
			}
		}
		s.Close()
	}
	if got := connsAccepted.Value() - accepted; got > workers {
		t.Errorf("endpoint accepted %d connections for %d jobs on %d workers", got, jobs, workers)
	}
	if got := sessionsTotal.Value() - sessions; got != int64(ranks) {
		t.Errorf("%d sessions for %d ranks", got, ranks)
	}
	if got := staleRedials.Value() - redials; got != 0 {
		t.Errorf("%d stale redials in a run with no aborts", got)
	}
}

// TestFinalizeRacesClose: the dispatcher closes a job as soon as it has the
// last result, which is routinely before the rank has finalized. The
// connection the rank then parks, its session still open at the server, must
// survive that and serve its next job, whose init ends the old session. The
// endpoint is in another process, so the reuse shows in its TCP accepts.
func TestFinalizeRacesClose(t *testing.T) {
	sv := startRemoteService(t)
	a := attachJob(t, sv, "job_a", 1)
	attachJob(t, sv, "job_b", 1)
	accepted := connsAccepted.Value()
	c, err := DialFence(sv.Addr(), "job_a", 0, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	// Close lands first.
	a.Close()
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	redials := staleRedials.Value()
	c, err = DialFence(sv.Addr(), "job_b", 0, "k", "v")
	if err != nil {
		t.Fatalf("next job on the kept connection: %v", err)
	}
	defer c.Finalize()
	a.mu.Lock()
	sess := a.ranks[0].sess
	a.mu.Unlock()
	if sess != nil {
		t.Error("the next job's init left the closed job's session open")
	}
	if got := connsAccepted.Value() - accepted; got != 1 {
		t.Errorf("accepted %d connections, want 1: the kept one was not reused", got)
	}
	if got := staleRedials.Value() - redials; got != 0 {
		t.Errorf("%d redials: Close cut a connection that was not in a barrier", got)
	}
}

// TestCloseCutsOnlyHeldRanks: closing a job on a shared endpoint fails the
// rank that waits in a barrier, and leaves the connections of the others to
// their processes: finalize is still served and the connection lives on; any
// other request is refused and drops it.
func TestCloseCutsOnlyHeldRanks(t *testing.T) {
	sv := startService(t)
	s := attachJob(t, sv, "job", 3)
	attachJob(t, sv, "next", 1)
	heldErr := make(chan error, 1)
	go func() {
		_, err := DialFence(sv.Addr(), "job", 0, "k", "v")
		heldErr <- err
	}()
	finalizes := dialWire(t, sv.Addr())
	finalizes.send("cmd=init pmiid=1 kvsname=job")
	finalizes.expect("cmd=response_to_init rc=0 size=3 rank=1 kvsname=job")
	carriesOn := dialWire(t, sv.Addr())
	carriesOn.send("cmd=init pmiid=2 kvsname=job")
	carriesOn.expect("cmd=response_to_init rc=0 size=3 rank=2 kvsname=job")
	waitFor(t, s, "rank 0 in the barrier", func() bool { return s.barrierN == 1 })

	s.Close()
	select {
	case err := <-heldErr:
		if err == nil {
			t.Fatal("a rank left a barrier that never completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank still blocked in the barrier after Close")
	}
	finalizes.send("cmd=finalize", "cmd=init pmiid=0 kvsname=next")
	finalizes.expect("cmd=response_to_init rc=0 size=1 rank=0 kvsname=next")
	carriesOn.send("cmd=barrier_in")
	carriesOn.expectEOF()
}

// TestBarrierInAfterCloseIsNotCounted covers the window between dispatch's
// closed check and the count: a rank counted after Close would wait for a
// release with nobody left to cut it loose.
func TestBarrierInAfterCloseIsNotCounted(t *testing.T) {
	sv := startService(t)
	s := attachJob(t, sv, "job", 2)
	w := dialWire(t, sv.Addr())
	w.send("cmd=init pmiid=0 kvsname=job")
	w.expect("cmd=response_to_init rc=0 size=2 rank=0 kvsname=job")
	sc := func() *serverConn { s.mu.Lock(); defer s.mu.Unlock(); return s.ranks[0].sess }()
	s.Close()
	if drop, held := s.barrierIn(sc); !drop || held {
		t.Fatalf("barrierIn on a closed job: drop=%v held=%v, want the connection dropped", drop, held)
	}
	if s.barrierN != 0 {
		t.Fatalf("barrierN=%d: a rank was counted into a closed job's barrier", s.barrierN)
	}
}

// TestStaleKeptConnectionRetriesOnce covers both halves of the redial rule at
// an endpoint in another process, where the redial is a TCP dial.
func TestStaleKeptConnectionRetriesOnce(t *testing.T) {
	// park leaves this process with one kept connection to sv.
	park := func(t *testing.T, sv *Service, kvs string) {
		t.Helper()
		attachJob(t, sv, kvs, 1)
		c, err := DialFence(sv.Addr(), kvs, 0, "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("cut while parked", func(t *testing.T) {
		sv := startRemoteService(t)
		park(t, sv, "warm")
		cutAll(t, sv)
		attachJob(t, sv, "job", 1)
		accepted, redials := connsAccepted.Value(), staleRedials.Value()
		c, err := DialFence(sv.Addr(), "job", 0, "k", "v")
		if err != nil {
			t.Fatalf("bootstrap over a stale kept connection: %v", err)
		}
		defer c.Finalize()
		if v, err := c.Get("k"); err != nil || v != "v" {
			t.Fatalf("get after the redial: %q, %v", v, err)
		}
		if got := staleRedials.Value() - redials; got != 1 {
			t.Errorf("stale redials %d, want 1", got)
		}
		if got := connsAccepted.Value() - accepted; got != 1 {
			t.Errorf("accepted %d connections, want the one redial", got)
		}
	})

	t.Run("cut after the rank was counted", func(t *testing.T) {
		sv := startRemoteService(t)
		park(t, sv, "warm")
		s := attachJob(t, sv, "job", 2)
		redials := staleRedials.Value()
		errc := make(chan error, 1)
		go func() {
			_, err := DialFence(sv.Addr(), "job", 0, "k", "v")
			errc <- err
		}()
		// The server has init, put and barrier_in and holds all three
		// replies: from the client's side, nothing has happened yet.
		waitFor(t, s, "rank 0 in the barrier", func() bool { return s.barrierN == 1 })
		cutAll(t, sv)
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "rank_already_initialised") {
				t.Fatalf("retry of a counted rank: %v, want it refused", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("bootstrap still blocked after the cut")
		}
		if got := staleRedials.Value() - redials; got != 1 {
			t.Errorf("stale redials %d, want exactly 1", got)
		}
		s.mu.Lock()
		n, inited := s.barrierN, s.inited
		s.mu.Unlock()
		if n != 1 || inited != 1 {
			t.Fatalf("barrierN=%d inited=%d: the retry counted rank 0 a second time", n, inited)
		}
	})
}

// wireUp runs one job of n ranks at sv through DialFence, Get and Finalize.
func wireUp(t *testing.T, sv *Service, kvs string, n int) {
	t.Helper()
	s := attachJob(t, sv, kvs, n)
	errs := make(chan error, n)
	for rank := 0; rank < n; rank++ {
		go func(rank int) {
			c, err := DialFence(sv.Addr(), kvs, rank, fmt.Sprintf("addr-%d", rank), fmt.Sprintf("h%d", rank))
			if err == nil {
				if v, gerr := c.Get(fmt.Sprintf("addr-%d", (rank+1)%n)); gerr != nil || v != fmt.Sprintf("h%d", (rank+1)%n) {
					err = fmt.Errorf("rank %d: get: %q, %v", rank, v, gerr)
				}
				if ferr := c.Finalize(); err == nil {
					err = ferr
				}
			}
			errs <- err
		}(rank)
	}
	for rank := 0; rank < n; rank++ {
		if err := <-errs; err != nil {
			t.Fatalf("%s: %v", kvs, err)
		}
	}
	s.Close()
}

// TestInProcessRankOpensNoSocket: ranks of the endpoint's own process reach
// it through pipes. Jobs back to back accept no TCP connection and open no
// descriptor, and the rules of the kept connection hold on a pipe: one cut
// while parked is retried once, on a new pipe, and a rank held in a barrier
// when its job closes fails instead of hanging.
func TestInProcessRankOpensNoSocket(t *testing.T) {
	sv := startService(t)
	accepted, redials, sessions := connsAccepted.Value(), staleRedials.Value(), sessionsTotal.Value()
	fds := openFDs(t)
	for j := 0; j < 50; j++ {
		wireUp(t, sv, fmt.Sprintf("job_%d", j), []int{2, 4}[j%2])
	}
	if got := sessionsTotal.Value() - sessions; got != 150 {
		t.Errorf("%d sessions for 150 ranks", got)
	}

	cutAll(t, sv)
	attachJob(t, sv, "after_cut", 1)
	c, err := DialFence(sv.Addr(), "after_cut", 0, "k", "v")
	if err != nil {
		t.Fatalf("bootstrap over a stale kept pipe: %v", err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := staleRedials.Value() - redials; got != 1 {
		t.Errorf("stale redials %d, want 1", got)
	}

	s := attachJob(t, sv, "held", 2)
	heldErr := make(chan error, 1)
	go func() {
		_, err := DialFence(sv.Addr(), "held", 0, "k", "v")
		heldErr <- err
	}()
	waitFor(t, s, "rank 0 in the barrier", func() bool { return s.barrierN == 1 })
	s.Close()
	select {
	case err := <-heldErr:
		if err == nil {
			t.Fatal("a rank left a barrier that never completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank still blocked in the barrier after Close")
	}

	if got := connsAccepted.Value() - accepted; got != 0 {
		t.Errorf("in-process ranks made the endpoint accept %d TCP connections", got)
	}
	if got := openFDs(t); got > fds {
		t.Errorf("open descriptors %d -> %d", fds, got)
	}
}

// serviceGoroutines counts the goroutines in a Service's accept or session
// loop. Other tests' goroutines still exiting do not move it, and a loop's
// goroutine signals Close only after the loop has returned, so one that Close
// waited for is out of the count even before the runtime reaps it.
func serviceGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pmi.(*Service).serve(") || strings.Contains(g, "pmi.(*Service).acceptLoop(") {
			n++
		}
	}
	return n
}

// TestServiceCloseReturnsItsGoroutines: Close returns once the accept loop and
// every session loop have, over TCP or a pipe, in a session or held in a
// barrier, so the count of those goroutines is back where it was with no
// wait.
func TestServiceCloseReturnsItsGoroutines(t *testing.T) {
	before := serviceGoroutines()
	sv, err := NewService("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(sv) })
	s, err := NewServer("job", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Attach(s); err != nil {
		t.Fatal(err)
	}
	tcp := dialWire(t, sv.Addr())
	tcp.send("cmd=init pmiid=0 kvsname=job")
	tcp.expect("cmd=response_to_init rc=0 size=3 rank=0 kvsname=job")
	held, err := sv.pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := held.Write([]byte("cmd=init pmiid=1 kvsname=job\ncmd=barrier_in\n")); err != nil {
		t.Fatal(err)
	}
	inSession, err := sv.pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inSession.Write([]byte("cmd=init pmiid=2 kvsname=job\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := bufio.NewReader(inSession).ReadString('\n'); err != nil || got != "cmd=response_to_init rc=0 size=3 rank=2 kvsname=job\n" {
		t.Fatalf("init on a pipe: %q, %v", got, err)
	}
	waitFor(t, s, "rank 1 in the barrier", func() bool { return s.barrierN == 1 })
	if n := serviceGoroutines(); n != before+4 {
		t.Fatalf("%d goroutines with an accept loop and three session loops, want %d", n, before+4)
	}
	sv.Close()
	if n := serviceGoroutines(); n != before {
		t.Fatalf("%d goroutines right after Close, %d before the endpoint started", n, before)
	}
	if _, err := sv.pipe(); err != ErrClosed {
		t.Fatalf("pipe to a closed endpoint: %v, want ErrClosed", err)
	}
}

// TestIdleListIsBounded: connections to endpoints that are gone age out of
// the list instead of accumulating.
func TestIdleListIsBounded(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 2*maxIdle; i++ {
		a, b := net.Pipe()
		wg.Add(1)
		go func() { defer wg.Done(); io.Copy(io.Discard, b) }() // ends when a is closed
		park(keptConn{addr: fmt.Sprintf("gone:%d", i), conn: a})
	}
	idle.Lock()
	n := len(idle.conns)
	idle.Unlock()
	if n > maxIdle {
		t.Fatalf("idle list holds %d connections, cap %d", n, maxIdle)
	}
	for i := 0; i < 2*maxIdle; i++ {
		if k, ok := takeIdle(fmt.Sprintf("gone:%d", i)); ok {
			if i < maxIdle {
				t.Errorf("entry %d survived eviction by %d newer ones", i, maxIdle)
			}
			k.conn.Close()
		}
	}
	wg.Wait() // every evicted connection was closed
}
