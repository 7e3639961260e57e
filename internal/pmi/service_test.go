package pmi

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startService(t *testing.T) *Service {
	t.Helper()
	sv, err := NewService("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv
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
	waitFor(t, s, "rank 0's finalize", func() bool { return s.finalized == 1 })
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
// space and no other, whether it names one or not.
func TestSessionsInterleavedOnOneConnection(t *testing.T) {
	sv := startService(t)
	a := attachJob(t, sv, "job_a", 2)
	b := attachJob(t, sv, "job_b", 1)
	w := dialWire(t, sv.Addr())

	w.send("cmd=init pmiid=0 kvsname=job_a", "cmd=put key=x value=from_a", "cmd=finalize")
	w.expect("cmd=response_to_init rc=0 size=2 rank=0 kvsname=job_a")
	w.expect("cmd=put_result rc=0")

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
	w.send("cmd=finalize")

	for _, s := range []*Server{a, b} {
		select {
		case <-s.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s: not every rank's finalize was counted", s.kvsName)
		}
	}
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
	sess, finalized := a.ranks[0].sess, a.finalized
	a.mu.Unlock()
	if sess != nil || finalized != 0 {
		t.Fatalf("job_a after the rank moved on: session=%v finalized=%d, want none and 0", sess, finalized)
	}
	if a.KVSLen() != 0 || b.KVSLen() != 1 {
		t.Fatalf("kvs sizes a=%d b=%d: the put went to the wrong job", a.KVSLen(), b.KVSLen())
	}
}

// TestKeptConnectionServesNextJob runs 500 jobs of 2, 4 and 8 ranks back to
// back on 8 workers. The ranks find the connection their worker's previous
// rank finalized on, so the endpoint accepts no more connections than there
// are workers.
func TestKeptConnectionServesNextJob(t *testing.T) {
	const workers, jobs = 8, 500
	sv := startService(t)
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
		if err := s.Wait(5 * time.Second); err != nil {
			t.Fatalf("job %d: %v", j, err)
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
// last result, which is routinely before the server has read the rank's
// one-way finalize. The connection the rank has already parked must survive
// that and serve its next job.
func TestFinalizeRacesClose(t *testing.T) {
	sv := startService(t)
	a := attachJob(t, sv, "job_a", 1)
	attachJob(t, sv, "job_b", 1)
	accepted := connsAccepted.Value()
	c, err := DialFence(sv.Addr(), "job_a", 0, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	// Close lands first; the server has not seen finalize yet.
	a.Close()
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done(): // and the late finalize is still counted
	case <-time.After(5 * time.Second):
		t.Fatal("finalize after Close was not served")
	}
	redials := staleRedials.Value()
	c, err = DialFence(sv.Addr(), "job_b", 0, "k", "v")
	if err != nil {
		t.Fatalf("next job on the kept connection: %v", err)
	}
	defer c.Finalize()
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

// TestStaleKeptConnectionRetriesOnce covers both halves of the redial rule.
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
		sv := startService(t)
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
		sv := startService(t)
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
