package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestSimultaneousDial makes every rank send to every other rank before it
// receives anything, so both ends of each pair dial at once and the pair ends
// up with one or two connections depending on who wins. Whatever the outcome,
// every message must arrive exactly once and in the order it was sent.
func TestSimultaneousDial(t *testing.T) {
	const msgs = 200
	for _, n := range []int{2, 4} {
		for round := 0; round < 20; round++ {
			err := RunTCP(n, func(c *Comm) error {
				var seq [8]byte
				for i := 0; i < msgs; i++ {
					binary.BigEndian.PutUint64(seq[:], uint64(i))
					for peer := 0; peer < n; peer++ {
						if peer == c.Rank() {
							continue
						}
						if err := c.Send(peer, 7, seq[:]); err != nil {
							return err
						}
					}
				}
				for peer := 0; peer < n; peer++ {
					if peer == c.Rank() {
						continue
					}
					for i := 0; i < msgs; i++ {
						m, err := c.Recv(peer, 7)
						if err != nil {
							return err
						}
						if got := binary.BigEndian.Uint64(m.Data); got != uint64(i) {
							return fmt.Errorf("from rank %d: message %d arrived in place %d", peer, got, i)
						}
					}
				}
				// Every rank has finished sending once the barrier is through,
				// so a duplicate would be queued by now.
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.q.len() != 0 {
					return fmt.Errorf("rank %d: a message arrived twice", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d round %d: %v", n, round, err)
			}
		}
	}
}

// TestReplyReusesConnection is the case sharing is for: when one side sends
// first and the other only answers, the pair uses a single connection.
func TestReplyReusesConnection(t *testing.T) {
	if err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("ping")); err != nil {
				return err
			}
			if _, err := c.Recv(1, 2); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
			if err := c.Send(0, 2, []byte("pong")); err != nil {
				return err
			}
		}
		tr := c.tr.(*tcpTransport)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if len(tr.sessions) != 1 {
			return fmt.Errorf("rank %d holds %d sessions for one pair", c.Rank(), len(tr.sessions))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLargePingPongTCP bounces a 4 MiB payload, which takes the writev and
// direct-read paths in both directions of one shared connection.
func TestLargePingPongTCP(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A, 0xC3}, 2<<20)
	if err := RunTCP(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, i, big); err != nil {
					return err
				}
			}
			m, err := c.Recv(peer, i)
			if err != nil {
				return err
			}
			if !bytes.Equal(m.Data, big) {
				return fmt.Errorf("round %d: payload corrupted, len=%d", i, len(m.Data))
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, i, m.Data); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func barrierJob(c *Comm) error { return c.Barrier() }

// TestBarrierJobAllocation guards the launch path's memory: a 4-rank job that
// wires up, barriers and exits must allocate no more than 64 KiB in total
// (it measures about 36 KiB; twice that under the race detector).
// The per-connection 64 KiB reader and writer this transport once had cost
// about 1 MiB per such job, all of it zeroed by the allocator.
func TestBarrierJobAllocation(t *testing.T) {
	const jobs = 20
	for i := 0; i < 3; i++ { // fill the reader pool
		if err := RunTCP(4, barrierJob); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		if err := RunTCP(4, barrierJob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("%d bytes allocated per 4-rank barrier job", perJob)
	bound := uint64(64 << 10)
	if raceEnabled {
		bound *= 2
	}
	if perJob > bound {
		t.Fatalf("%d bytes allocated per 4-rank barrier job, want <= %d", perJob, bound)
	}
}

func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestCloseReleasesInboundConnections runs 500 jobs in which rank 0 leaves at
// once while the others have already sent to it. A transport's close used to
// leave the connections it had accepted, and their readers, to the peers;
// now each close returns only when its own readers are gone, so the process
// ends with the goroutines and descriptors it started with.
func TestCloseReleasesInboundConnections(t *testing.T) {
	job := func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		// Rank 0 may already have gone, and then this send fails: either way
		// nobody waits for rank 0.
		_ = c.Send(0, 1, []byte("are you there"))
		to, from := c.Rank()%3+1, (c.Rank()+1)%3+1 // a ring over ranks 1..3
		if err := c.Send(to, 2, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		m, err := c.Recv(from, 2)
		if err == nil && int(m.Data[0]) != from {
			err = fmt.Errorf("rank %d: got %d's message from %d", c.Rank(), m.Data[0], from)
		}
		return err
	}
	for i := 0; i < 10; i++ {
		if err := RunTCP(4, job); err != nil {
			t.Fatal(err)
		}
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for i := 0; i < 500; i++ {
		if err := RunTCP(4, job); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	// The PMI server's per-connection goroutines end on their own shortly
	// after RunTCP returns; everything the transport started is already gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+2 || openFDs(t) > fds+2 {
		if time.Now().After(deadline) {
			t.Fatalf("after 500 jobs: %d goroutines (started with %d), %d open files (started with %d)",
				runtime.NumGoroutine(), goroutines, openFDs(t), fds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
