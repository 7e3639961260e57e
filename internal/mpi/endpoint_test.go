package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"jets/internal/obs"
	"jets/internal/obs/obstest"
)

// newTestEndpoint stands up an endpoint of its own, which plays a second
// process: ranks registered there reach the default endpoint's ranks over
// links that end with their session. Its listener and idle links are closed
// when the test ends.
func newTestEndpoint(t *testing.T) *endpoint {
	ep := &endpoint{}
	t.Cleanup(func() {
		ep.mu.Lock()
		ln, idle := ep.ln, ep.idle
		ep.idle = nil
		ep.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, c := range idle {
			c.Close()
		}
	})
	return ep
}

// on places every rank at ep.
func on(ep *endpoint) func(int) *endpoint { return func(int) *endpoint { return ep } }

func registered(ep *endpoint) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.ranks)
}

func idleLinks(ep *endpoint) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.idle)
}

// TestLateFrameNeverCrossesSessions: in job k, rank 0 keeps sending to rank
// 1 after rank 1 has closed, and goes on while job k+1 runs on the link rank
// 1 parked. The bye that ended rank 0's session stops its writes before the
// link can be parked, so job k+1 must see only its own messages, rank 0's
// sends must fail with ErrPeerClosed, and job k+1 must dial nothing.
func TestLateFrameNeverCrossesSessions(t *testing.T) {
	ep := newTestEndpoint(t)
	for round := 0; round < 50; round++ {
		d0 := connsDialed.Value()
		parked := make(chan struct{})
		nextDone := make(chan struct{})
		lateErr := make(chan error, 1)
		jobK := make(chan error, 1)
		go func() {
			jobK <- runTCP(2, on(ep), func(c *Comm) error {
				if c.Rank() == 1 {
					if err := c.Send(0, 1, []byte("open")); err != nil {
						return err
					}
					if _, err := c.Recv(0, 2); err != nil {
						return err
					}
					c.Close() // parks the link
					close(parked)
					return nil
				}
				if _, err := c.Recv(1, 1); err != nil {
					return err
				}
				var err error
				for sent := 0; ; sent++ {
					select {
					case <-nextDone: // and one more, sure to be late
						lateErr <- c.Send(1, 2, []byte("job k"))
						return nil
					default:
					}
					if e := c.Send(1, 2, []byte("job k")); e != nil {
						err = e
						time.Sleep(10 * time.Microsecond)
					} else if err != nil {
						return fmt.Errorf("send %d succeeded after one failed with %v", sent, err)
					}
				}
			})
		}()
		<-parked
		err := runTCP(2, on(ep), func(c *Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < 20; i++ {
				if c.Rank() == 1 {
					if err := c.Send(peer, 2, []byte("job k+1")); err != nil {
						return err
					}
				}
				m, err := c.Recv(peer, AnyTag)
				if err != nil {
					return err
				}
				if string(m.Data) != "job k+1" {
					return fmt.Errorf("rank %d got %q", c.Rank(), m.Data)
				}
				if c.Rank() == 0 {
					if err := c.Send(peer, 2, m.Data); err != nil {
						return err
					}
				}
			}
			return nil
		})
		close(nextDone)
		if err != nil {
			t.Fatalf("round %d, job k+1: %v", round, err)
		}
		if err := <-jobK; err != nil {
			t.Fatalf("round %d, job k: %v", round, err)
		}
		if err := <-lateErr; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("round %d: rank 0's sends after rank 1 left: %v, want ErrPeerClosed", round, err)
		}
		if round > 0 && connsDialed.Value() != d0 {
			t.Fatalf("round %d: %d links dialed, want 0 on a warm endpoint", round, connsDialed.Value()-d0)
		}
	}
}

// TestRankLeavingFailsRecvOverKeptLink: on a link kept from an earlier job,
// a rank that closes mid-job still fails its peer's receive with
// ErrPeerClosed, whichever end of the link it holds.
func TestRankLeavingFailsRecvOverKeptLink(t *testing.T) {
	ep := newTestEndpoint(t)
	if err := runTCP(2, on(ep), barrierJob); err != nil { // rank 1 dials, parks the link
		t.Fatal(err)
	}
	for leaver := 0; leaver < 2; leaver++ {
		d0 := connsDialed.Value()
		err := runTCP(2, on(ep), func(c *Comm) error {
			if err := c.Barrier(); err != nil { // a session on the kept link
				return err
			}
			if c.Rank() == leaver {
				return nil
			}
			if _, err := c.Recv(leaver, 1); !errors.Is(err, ErrPeerClosed) {
				return fmt.Errorf("receive from rank %d, which left: %v, want ErrPeerClosed", leaver, err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("leaver %d: %v", leaver, err)
		}
		if d := connsDialed.Value() - d0; d != 0 {
			t.Fatalf("leaver %d: %d links dialed, want the kept one", leaver, d)
		}
	}
	if n := idleLinks(ep); n != 1 {
		t.Fatalf("%d idle links after three jobs of one edge, want 1", n)
	}
}

// TestLinkToOtherEndpointIsNeverPooled: rank 1 lives at a second endpoint (a
// second process) and dials rank 0, its tree parent, at the first. The link
// ends with its session, dialer first, so every job dials one link, neither
// endpoint keeps one, and no TIME_WAIT socket is left on the first
// endpoint's listening port. (A dialer that closes with the peer's bye unread
// resets the link and leaves no TIME_WAIT socket at all, so only some jobs
// leave one on the dialer's side.)
func TestLinkToOtherEndpointIsNeverPooled(t *testing.T) {
	here, there := newTestEndpoint(t), newTestEndpoint(t)
	at := func(rank int) *endpoint {
		if rank == 0 {
			return here
		}
		return there
	}
	const jobs = 20
	d0, s0 := connsDialed.Value(), sessionsOpened.Value()
	for i := 0; i < jobs; i++ {
		if err := runTCP(2, at, func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d, s := connsDialed.Value()-d0, sessionsOpened.Value()-s0; d != jobs || s != jobs {
		t.Fatalf("%d links dialed, %d sessions for %d jobs of one edge; want one of each per job", d, s, jobs)
	}
	if a, b := idleLinks(here), idleLinks(there); a != 0 || b != 0 {
		t.Fatalf("idle links: %d here, %d there; want none", a, b)
	}
	_, port, _ := strings.Cut(here.addr, ":")
	local, remote, ok := timeWaitPorts()
	if !ok {
		t.Skip("no /proc/net/tcp: cannot tell which end closed first")
	}
	if local[port] != 0 {
		t.Fatalf("%d TIME_WAIT sockets on the listening port %s: the accepting end closed first", local[port], port)
	}
	if remote[port] == 0 {
		t.Fatalf("no TIME_WAIT socket of a dialer towards port %s after %d jobs", port, jobs)
	}
}

// timeWaitPorts counts this network namespace's IPv4 TIME_WAIT sockets by
// their local and by their remote port (decimal).
func timeWaitPorts() (local, remote map[string]int, ok bool) {
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return nil, nil, false
	}
	defer f.Close()
	local, remote = map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// sl local_address rem_address st ...; addresses are HEXIP:HEXPORT
		fs := strings.Fields(sc.Text())
		if len(fs) < 4 || fs[3] != "06" {
			continue
		}
		port := func(a string) string {
			_, p, _ := strings.Cut(a, ":")
			v, _ := strconv.ParseUint(p, 16, 16)
			return strconv.FormatUint(v, 10)
		}
		local[port(fs[1])]++
		remote[port(fs[2])]++
	}
	return local, remote, true
}

// TestAcceptSurvivesEMFILE: one Accept error does not stop a process's MPI
// endpoint, which every later job of the process needs. After the process ran
// out of descriptors and got them back, a two-rank job whose child must dial
// a new link completes its barrier within 2 s.
func TestAcceptSurvivesEMFILE(t *testing.T) {
	ep := newTestEndpoint(t)
	if err := runTCP(1, on(ep), barrierJob); err != nil { // opens the listener, no link
		t.Fatal(err)
	}
	before := obs.AcceptErrors.Value()
	obstest.ExhaustDescriptors(t, ep.addr)
	if obs.AcceptErrors.Value() == before {
		t.Fatal("no Accept error was provoked")
	}
	done := make(chan error, 1)
	go func() { done <- runTCP(2, on(ep), barrierJob) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a job needing a new link after the descriptors came back was not served within 2 s")
	}
}

// within runs job on n ranks placed by at, and fails the test if it has not
// returned in 5 s: a receive that should fail is waiting for a frame that
// never comes.
func within(t *testing.T, n int, at func(int) *endpoint, job func(c *Comm) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- runTCP(n, at, job) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the job did not end within 5 s")
	}
}

// TestSessionEndCountsFramesInFlight: rank 0 sends 2,000 frames of 64 KiB to
// rank 1 of the same process and closes at once, with most of them still in
// the kernel or the reader's buffer. Its end travels in memory, ahead of
// them, so it carries their count: rank 1 gets every frame, in order, and
// only then ErrPeerClosed.
func TestSessionEndCountsFramesInFlight(t *testing.T) {
	const msgs, size, tag = 2000, 64 << 10, 5
	within(t, 2, on(newTestEndpoint(t)), func(c *Comm) error {
		if c.Rank() == 0 {
			frame := make([]byte, size)
			for i := 0; i < msgs; i++ {
				binary.BigEndian.PutUint32(frame, uint32(i))
				if err := c.Send(1, tag, frame); err != nil {
					return err
				}
			}
			return nil // closes
		}
		for i := 0; i < msgs; i++ {
			m, err := c.Recv(0, tag)
			if err != nil {
				return fmt.Errorf("message %d of %d: %w", i, msgs, err)
			}
			if got := binary.BigEndian.Uint32(m.Data); len(m.Data) != size || got != uint32(i) {
				return fmt.Errorf("message %d: %d bytes, number %d", i, len(m.Data), got)
			}
		}
		if _, err := c.Recv(0, tag); !errors.Is(err, ErrPeerClosed) {
			return fmt.Errorf("receive after the last message: %v, want ErrPeerClosed", err)
		}
		return nil
	})
}

// TestSessionEndsWhenRankLeavesBeforeFirstMessage: a rank that closes before
// it has sent or received anything has no session, yet every rank of its job
// in the same process learns at once that it left, so a receive from it fails
// rather than waiting for the job's wall limit.
func TestSessionEndsWhenRankLeavesBeforeFirstMessage(t *testing.T) {
	const n, leaver = 4, 3
	within(t, n, on(newTestEndpoint(t)), func(c *Comm) error {
		if c.Rank() == leaver {
			return nil
		}
		if _, err := c.Recv(leaver, 1); !errors.Is(err, ErrPeerClosed) {
			return fmt.Errorf("rank %d: receive from rank %d, which left: %v, want ErrPeerClosed", c.Rank(), leaver, err)
		}
		if err := c.Send(leaver, 1, nil); !errors.Is(err, ErrPeerClosed) {
			return fmt.Errorf("rank %d: send to rank %d, which left: %v, want ErrPeerClosed", c.Rank(), leaver, err)
		}
		return nil
	})
}

// TestSessionToLeftRankOfOtherEndpointIsRefused: rank 1 lives at a second
// endpoint (a second process) and leaves before anything is sent. Rank 0's
// first frame to it opens a session there that is refused with a bye, so rank
// 0's receive from rank 1 fails instead of hanging.
func TestSessionToLeftRankOfOtherEndpointIsRefused(t *testing.T) {
	here, there := newTestEndpoint(t), newTestEndpoint(t)
	at := func(rank int) *endpoint {
		if rank == 0 {
			return here
		}
		return there
	}
	within(t, 2, at, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		for registered(there) > 0 {
			time.Sleep(time.Millisecond)
		}
		if err := c.Send(1, 1, []byte("anyone there")); err != nil {
			return err
		}
		if _, err := c.Recv(1, 2); !errors.Is(err, ErrPeerClosed) {
			return fmt.Errorf("receive from rank 1 after its refusal: %v, want ErrPeerClosed", err)
		}
		return nil
	})
}
