package pmi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func startServer(t *testing.T, size int) (*Server, string) {
	t.Helper()
	s, err := NewServer("kvs_test", size)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestRecordParseFormat(t *testing.T) {
	var r record
	if err := r.parse([]byte("cmd=put kvsname=k  key=a\tvalue=b")); err != nil {
		t.Fatal(err)
	}
	if string(r.cmd) != "put" || string(r.get("key")) != "a" || string(r.get("value")) != "b" || r.get("nope") != nil {
		t.Fatalf("parsed %q %q", r.cmd, r.fields)
	}
	out := appendRecord(nil, "put", "kvsname", "k", "key", "a", "value", "b")
	if string(out) != "cmd=put kvsname=k key=a value=b\n" {
		t.Fatalf("formatted %q", out)
	}
	// Round trip, reusing the record: fields keep wire order, and a field
	// named cmd after the first is data (a fence may carry such a key).
	out = appendRecord(out[:0], "barrier_out", "cmd", "x", "k", "v")
	if err := r.parse(out[:len(out)-1]); err != nil {
		t.Fatal(err)
	}
	if string(r.cmd) != "barrier_out" || len(r.fields) != 2 ||
		string(r.fields[0].key) != "cmd" || string(r.fields[1].val) != "v" {
		t.Fatalf("round trip: %q %q", r.cmd, r.fields)
	}
}

func TestRecordParseErrors(t *testing.T) {
	var r record
	if err := r.parse([]byte("cmd=x bad-field")); err == nil {
		t.Error("want error on field without =")
	}
	if err := r.parse([]byte("key=value cmd=x")); err == nil {
		t.Error("want error on record not beginning with cmd")
	}
	if err := r.parse(nil); err == nil {
		t.Error("want error on empty record")
	}
}

// TestRecordCodecAllocs pins the codec's point: parsing into a reused record
// and formatting into a reused buffer allocate nothing per line.
func TestRecordCodecAllocs(t *testing.T) {
	var r record
	line := []byte("cmd=put kvsname=k key=mpiaddr-3 value=127.0.0.1:40000")
	buf := make([]byte, 0, 128)
	r.parse(line)
	if n := testing.AllocsPerRun(100, func() {
		if err := r.parse(line); err != nil {
			t.Fatal(err)
		}
		buf = appendRecord(buf[:0], "put", "key", "mpiaddr-3", "value", "127.0.0.1:40000")
	}); n != 0 {
		t.Fatalf("%v allocations per parse+format, want 0", n)
	}
}

func TestInitHandshake(t *testing.T) {
	_, addr := startServer(t, 1)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 0 || c.Size() != 1 || c.KVSName() != "kvs_test" {
		t.Fatalf("rank=%d size=%d kvs=%q", c.Rank(), c.Size(), c.KVSName())
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestInitBadRank(t *testing.T) {
	_, addr := startServer(t, 2)
	if _, err := Dial(addr, 5); err == nil {
		t.Fatal("want rejection for out-of-range rank")
	}
	if _, err := Dial(addr, -1); err == nil {
		t.Fatal("want rejection for negative rank")
	}
}

func TestPutGet(t *testing.T) {
	_, addr := startServer(t, 1)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finalize()
	if err := c.Put("addr-0", "10.0.0.1:9999"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("addr-0")
	if err != nil {
		t.Fatal(err)
	}
	if v != "10.0.0.1:9999" {
		t.Fatalf("got %q", v)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("got %v want ErrKeyNotFound", err)
	}
}

func TestPutRejectsInvalidTokens(t *testing.T) {
	_, addr := startServer(t, 1)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finalize()
	for _, kv := range [][2]string{{"a b", "v"}, {"k", "v v"}, {"", "v"}, {"k", ""}, {"k=x", "v"}} {
		if err := c.Put(kv[0], kv[1]); err == nil {
			t.Errorf("Put(%q,%q) accepted", kv[0], kv[1])
		}
	}
}

// TestWireUp exercises the full MPI bootstrap pattern: every rank puts its
// address, barriers, then gets every other rank's address.
func TestWireUp(t *testing.T) {
	const n = 8
	_, addr := startServer(t, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := Dial(addr, rank)
			if err != nil {
				errs <- err
				return
			}
			defer c.Finalize()
			if err := c.Put(fmt.Sprintf("addr-%d", rank), fmt.Sprintf("host%d:100%d", rank, rank)); err != nil {
				errs <- err
				return
			}
			if err := c.Barrier(); err != nil {
				errs <- err
				return
			}
			for peer := 0; peer < n; peer++ {
				v, err := c.Get(fmt.Sprintf("addr-%d", peer))
				if err != nil {
					errs <- fmt.Errorf("rank %d get addr-%d: %w", rank, peer, err)
					return
				}
				want := fmt.Sprintf("host%d:100%d", peer, peer)
				if v != want {
					errs <- fmt.Errorf("rank %d got %q want %q", rank, v, want)
					return
				}
			}
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMultipleBarriers(t *testing.T) {
	const n, rounds = 4, 5
	_, addr := startServer(t, n)
	var wg sync.WaitGroup
	var counter sync.Map
	errs := make(chan error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := Dial(addr, rank)
			if err != nil {
				errs <- err
				return
			}
			defer c.Finalize()
			for round := 0; round < rounds; round++ {
				key := fmt.Sprintf("r%d-rank%d", round, rank)
				if err := c.Put(key, "x"); err != nil {
					errs <- err
					return
				}
				if err := c.Barrier(); err != nil {
					errs <- err
					return
				}
				// After the barrier every rank's key for this round must exist.
				for p := 0; p < n; p++ {
					if _, err := c.Get(fmt.Sprintf("r%d-rank%d", round, p)); err != nil {
						errs <- fmt.Errorf("round %d rank %d: peer %d key missing: %w", round, rank, p, err)
						return
					}
				}
				counter.Store(fmt.Sprintf("%d-%d", round, rank), true)
			}
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerDone(t *testing.T) {
	s, addr := startServer(t, 2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			c, err := Dial(addr, rank)
			if err != nil {
				return
			}
			c.Finalize()
		}(rank)
	}
	if err := s.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestServerWaitTimeout(t *testing.T) {
	s, _ := startServer(t, 2)
	if err := s.Wait(50 * time.Millisecond); err == nil {
		t.Fatal("want timeout error")
	}
}

func TestFinalizeTwice(t *testing.T) {
	_, addr := startServer(t, 1)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second finalize: got %v want ErrClosed", err)
	}
}

func TestEnvRendering(t *testing.T) {
	env := Env("127.0.0.1:1234", 3, 8, "kvs_9")
	want := []string{"PMI_PORT=127.0.0.1:1234", "PMI_RANK=3", "PMI_SIZE=8", "PMI_KVSNAME=kvs_9"}
	if len(env) != len(want) {
		t.Fatalf("env=%v", env)
	}
	for i := range want {
		if env[i] != want[i] {
			t.Errorf("env[%d]=%q want %q", i, env[i], want[i])
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("has space", 4); err == nil {
		t.Error("want error for kvs name with space")
	}
	if _, err := NewServer("ok", 0); err == nil {
		t.Error("want error for size 0")
	}
}

// Property: any valid token pair survives a put/get cycle.
func TestKVSRoundTripProperty(t *testing.T) {
	_, addr := startServer(t, 1)
	c, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Finalize()
	i := 0
	f := func(suffix uint16, val uint32) bool {
		i++
		key := fmt.Sprintf("k%d-%d", i, suffix)
		value := fmt.Sprintf("v%d", val)
		if err := c.Put(key, value); err != nil {
			return false
		}
		got, err := c.Get(key)
		return err == nil && got == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBootstrapWire drives the wire directly: init, put and
// barrier_in in one write are answered, in order, by the init reply, the put
// result and a barrier_out that lists the fence.
func TestPipelinedBootstrapWire(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("cmd=init pmiid=0\ncmd=put key=a value=b\ncmd=barrier_in\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for _, want := range []string{
		"cmd=response_to_init rc=0 size=1 rank=0 kvsname=kvs_test\n",
		"cmd=put_result rc=0\n",
		"cmd=barrier_out a=b\n",
	} {
		got, err := r.ReadString('\n')
		if err != nil || got != want {
			t.Fatalf("got %q, %v; want %q", got, err, want)
		}
	}
	// finalize is one-way: the server counts it, says nothing and keeps
	// serving the connection. The next thing it answers is the next init,
	// refused here (rank 0 has had its session in this job), which drops the
	// connection.
	if _, err := conn.Write([]byte("cmd=finalize\ncmd=init pmiid=0\n")); err != nil {
		t.Fatal(err)
	}
	want := "cmd=response_to_init rc=-1 msg=rank_already_initialised\n"
	if got, err := r.ReadString('\n'); err != nil || got != want {
		t.Fatalf("after finalize: got %q, %v; want %q", got, err, want)
	}
	if got, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after a refused init: got %q, %v; want EOF", got, err)
	}
}

// TestDialFence runs ranks that bootstrap in one exchange next to ranks that
// use the serial Dial, Put, Barrier sequence, in one job. Every rank then
// reads every key, a key put after the fence included.
func TestDialFence(t *testing.T) {
	for _, n := range []int{2, 8, 64} { // 64 addresses overflow the client's read buffer
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s, addr := startServer(t, n)
			errs := make(chan error, n)
			for rank := 0; rank < n; rank++ {
				go func(rank int) { errs <- fenceRank(addr, rank, n) }(rank)
			}
			for rank := 0; rank < n; rank++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			if err := s.Wait(5 * time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}

func fenceRank(addr string, rank, n int) error {
	key, val := fmt.Sprintf("addr-%d", rank), fmt.Sprintf("127.0.0.1:%d", 40000+rank)
	var c *Client
	var err error
	if rank%2 == 0 {
		c, err = DialFence(addr, "", rank, key, val)
	} else if c, err = Dial(addr, rank); err == nil {
		if err = c.Put(key, val); err == nil {
			err = c.Barrier()
		}
	}
	if err != nil {
		return fmt.Errorf("rank %d bootstrap: %w", rank, err)
	}
	defer c.Finalize()
	if c.Size() != n || c.KVSName() != "kvs_test" {
		return fmt.Errorf("rank %d: size=%d kvs=%q", rank, c.Size(), c.KVSName())
	}
	for p := 0; p < n; p++ {
		want := fmt.Sprintf("127.0.0.1:%d", 40000+p)
		if _, cached := c.cache[fmt.Sprintf("addr-%d", p)]; !cached {
			return fmt.Errorf("rank %d: addr-%d not delivered by the fence", rank, p)
		}
		if v, err := c.Get(fmt.Sprintf("addr-%d", p)); err != nil || v != want {
			return fmt.Errorf("rank %d get addr-%d: %q, %v", rank, p, v, err)
		}
	}
	// Not in any fence yet: Get must fall back to asking the server.
	if err := c.Put(fmt.Sprintf("late-%d", rank), "x"); err != nil {
		return err
	}
	if v, err := c.Get(fmt.Sprintf("late-%d", rank)); err != nil || v != "x" {
		return fmt.Errorf("rank %d get after fence: %q, %v", rank, v, err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrKeyNotFound) {
		return fmt.Errorf("rank %d get missing: %v", rank, err)
	}
	return c.Barrier() // keep every connection up until all late keys are read
}

// TestCloseMidFence aborts the job while all but one rank wait in the
// bootstrap barrier: every waiter must return an error, not hang, and the
// rank that was not waiting finds its next request refused. On a private
// endpoint Close shuts every connection; on a shared one it cuts the waiters
// and refuses the other.
func TestCloseMidFence(t *testing.T) {
	const n = 8
	for _, kvs := range []string{"", "job"} {
		name := "private"
		if kvs != "" {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			var s *Server
			var addr string
			if kvs == "" {
				s, addr = startServer(t, n)
			} else {
				sv := startService(t)
				s, addr = attachJob(t, sv, kvs, n), sv.Addr()
			}
			wired := make(chan struct{})
			s.OnWired(func() { close(wired) })
			errs := make(chan error, n)
			for rank := 0; rank < n-1; rank++ {
				go func(rank int) {
					_, err := DialFence(addr, kvs, rank, fmt.Sprintf("k%d", rank), "v")
					errs <- err
				}(rank)
			}
			// The last rank connects but never enters the barrier.
			last, err := open(addr, kvs, n-1, (*Client).awaitInit)
			if err != nil {
				t.Fatal(err)
			}
			<-wired
			waitFor(t, s, "the other ranks in the barrier", func() bool { return s.barrierN == n-1 })
			s.Close()
			for rank := 0; rank < n-1; rank++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Error("a rank left a barrier that never completed")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("rank still blocked in the fence after Server.Close")
				}
			}
			if err := last.Barrier(); err == nil {
				t.Error("barrier on a closed server succeeded")
			}
		})
	}
}
