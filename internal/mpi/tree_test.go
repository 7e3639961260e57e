package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// treeSizes covers every shape of binomial tree up to 9 ranks (powers of two,
// one short of and one past them) and a 16-rank one.
var treeSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16}

// linkCounts snapshots the package's link and session counters.
func linkCounts() (dialed, accepted, discarded, sessions int64) {
	return connsDialed.Value(), connsAccepted.Value(), connsDiscarded.Value(), sessionsOpened.Value()
}

// TestCollectivesShareOneTree runs the application shapes in the repo as TCP
// jobs and counts their rank-pair sessions: the collectives they use all walk
// the binomial tree rooted at rank 0, whose children open sessions to their
// parents, so a job opens exactly n-1 sessions and loses no race. Every one of
// them is open at once when the first barrier releases, so after one job the
// process holds n-1 idle links, and the same job again dials nothing.
func TestCollectivesShareOneTree(t *testing.T) {
	shapes := []struct {
		name string
		job  func(c *Comm) error
	}{
		{"barrier-barrier", func(c *Comm) error { // barrier-wait, synthetic
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}},
		{"barrier-allreduce-barrier", namdSteps}, // namd without its checksum
		{"barrier-allreduce-barrier-allgather", func(c *Comm) error { // namd
			if err := namdSteps(c); err != nil {
				return err
			}
			parts, err := c.Allgather([]byte{byte(c.Rank())})
			if err != nil {
				return err
			}
			for r, p := range parts {
				if len(p) != 1 || int(p[0]) != r {
					return fmt.Errorf("allgather: parts[%d] = %v", r, p)
				}
			}
			return nil
		}},
		{"barrier-bcast-reduce", func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			got, err := c.Bcast(0, []byte("params"))
			if err != nil || string(got) != "params" {
				return fmt.Errorf("bcast: %q, %v", got, err)
			}
			sum, err := c.ReduceInt64(0, OpSum, []int64{int64(c.Rank())})
			if err != nil {
				return err
			}
			if want := int64(c.Size() * (c.Size() - 1) / 2); c.Rank() == 0 && sum[0] != want {
				return fmt.Errorf("reduce: %d, want %d", sum[0], want)
			}
			return nil
		}},
	}
	for _, shape := range shapes {
		for _, n := range treeSizes[1:] {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				if err := RunTCP(n, shape.job); err != nil { // warms the idle links
					t.Fatal(err)
				}
				d0, a0, x0, s0 := linkCounts()
				if err := RunTCP(n, shape.job); err != nil {
					t.Fatal(err)
				}
				d1, a1, x1, s1 := linkCounts()
				if sessions, discarded := s1-s0, x1-x0; sessions != int64(n-1) || discarded != 0 {
					t.Fatalf("%d sessions, %d discarded; want %d, 0", sessions, discarded, n-1)
				}
				if dialed, accepted := d1-d0, a1-a0; dialed != 0 || accepted != 0 {
					t.Fatalf("%d links dialed, %d accepted on a warm pool; want 0", dialed, accepted)
				}
			})
		}
	}
}

// namdSteps is internal/namd's Run up to its checksum: a barrier, an
// allreduce per time step, a barrier.
func namdSteps(c *Comm) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	for k := 0; k < 5; k++ {
		sum, err := c.AllreduceFloat64(OpSum, []float64{1})
		if err != nil {
			return err
		}
		if int(sum[0]) != c.Size() {
			return fmt.Errorf("allreduce %d: sum %v over %d ranks", k, sum, c.Size())
		}
	}
	return c.Barrier()
}

// barrierRounds runs rounds back-to-back barriers on c, which has n members,
// against arrivals, one counter per round shared by all of them. A rank counts
// itself in before it enters round k and must find all n counted when it
// comes out: nobody leaves a barrier before everybody has entered it. That
// also catches a message of round k+1 completing round k, since whoever sent
// it has left k. A different rank dawdles before every third round, so a tree
// that forgets to wait for one of its edges shows. A violation is reported
// after the last round: a rank that left early would hang the others.
func barrierRounds(c *Comm, n int, arrivals []atomic.Int32) error {
	var early error
	for k := range arrivals {
		if k%3 == 0 && c.Rank() == (k/3)%n {
			time.Sleep(200 * time.Microsecond)
		}
		arrivals[k].Add(1)
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("barrier %d: %w", k, err)
		}
		if got := arrivals[k].Load(); int(got) != n && early == nil {
			early = fmt.Errorf("rank %d left barrier %d with %d of %d ranks in it", c.Rank(), k, got, n)
		}
	}
	return early
}

func TestBarrierTreeHoldsEveryRank(t *testing.T) {
	for _, n := range treeSizes {
		for _, jr := range jobRunners {
			t.Run(fmt.Sprintf("n=%d/%s", n, jr.name), func(t *testing.T) {
				arrivals := make([]atomic.Int32, 200)
				if err := jr.run(n, func(c *Comm) error { return barrierRounds(c, n, arrivals) }); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCollectivesInterleaved calls collectives of different roots and edge
// sets in one order on every rank, several times over. Each takes its own tag
// block, so a slow rank's message from one must not complete its neighbour.
func TestCollectivesInterleaved(t *testing.T) {
	for _, n := range []int{4, 5, 7, 8, 9, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			forEachTransport(t, n, func(c *Comm) error {
				for round := 0; round < 20; round++ {
					if c.Rank() == round%n {
						time.Sleep(100 * time.Microsecond)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					var seed []byte
					if c.Rank() == 3 {
						seed = []byte{byte(round), 3}
					}
					got, err := c.Bcast(3, seed)
					if err != nil {
						return err
					}
					if len(got) != 2 || got[0] != byte(round) || got[1] != 3 {
						return fmt.Errorf("round %d: bcast from 3 gave %v", round, got)
					}
					sum, err := c.AllreduceInt64(OpSum, []int64{int64(c.Rank() + round)})
					if err != nil {
						return err
					}
					if want := int64(n*(n-1)/2 + n*round); sum[0] != want {
						return fmt.Errorf("round %d: allreduce gave %d, want %d", round, sum[0], want)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					parts, err := c.Gather(2, []byte{byte(c.Rank()), byte(round)})
					if err != nil {
						return err
					}
					if c.Rank() != 2 {
						continue
					}
					for r, p := range parts {
						if len(p) != 2 || p[0] != byte(r) || p[1] != byte(round) {
							return fmt.Errorf("round %d: gather at 2 has %v from rank %d", round, p, r)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestBarrierTreeFailsWhenARankLeaves: one rank closes its communicator
// instead of entering a barrier. Its parent in the tree only receives at that
// point, so nothing it sends can fail; what tells it is the end of the
// connection the rank used to send to it on, and it returns ErrPeerClosed.
// The rank's children fail on the send or on the release that never comes,
// and as each rank that fails leaves in turn so does the rest of the job,
// well inside byeWait.
func TestBarrierTreeFailsWhenARankLeaves(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for leaver := 0; leaver < n; leaver++ {
			t.Run(fmt.Sprintf("n=%d/leaver=%d", n, leaver), func(t *testing.T) {
				errs := make([]error, n)
				took := make([]time.Duration, n)
				if err := RunTCP(n, func(c *Comm) error {
					if err := c.Barrier(); err != nil { // wires the tree
						return err
					}
					if c.Rank() == leaver {
						return nil // RunTCP closes the communicator
					}
					start := time.Now()
					errs[c.Rank()] = c.Barrier()
					took[c.Rank()] = time.Since(start)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				rel, span := (&Comm{rank: leaver, size: n}).treePos(0)
				for rank, err := range errs {
					if rank == leaver {
						continue
					}
					if err == nil {
						t.Errorf("rank %d passed a barrier rank %d never entered", rank, leaver)
					} else if took[rank] > byeWait {
						t.Errorf("rank %d waited %v for its error", rank, took[rank])
					}
					if leaver != 0 && rank == rel-span && !errors.Is(err, ErrPeerClosed) {
						t.Errorf("rank %d, the parent of %d, got %v, want ErrPeerClosed", rank, leaver, err)
					}
				}
			})
		}
	}
}

// TestQueuedMessagesOutliveTheirSender: the queue hands over what a departed
// rank left behind, queued or still on its way, before it reports the rank
// gone, and other sources and wildcard receives are not affected.
func TestQueuedMessagesOutliveTheirSender(t *testing.T) {
	q := newMatchQueue()
	q.push(Message{Src: 1, Tag: 7, Data: []byte("last words")})
	q.peerGone(1, 2) // one more is on its way
	q.peerGone(1, 1) // the first count stands
	if m, err := q.pop(1, 7); err != nil || !bytes.Equal(m.Data, []byte("last words")) {
		t.Fatalf("queued message from a gone rank: %q, %v", m.Data, err)
	}
	late := make(chan error, 1)
	go func() {
		m, err := q.pop(1, 7)
		if err == nil && string(m.Data) != "in flight" {
			err = fmt.Errorf("got %q", m.Data)
		}
		late <- err
	}()
	select {
	case err := <-late:
		t.Fatalf("receive with a message still on its way returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	q.push(Message{Src: 1, Tag: 7, Data: []byte("in flight")})
	if err := <-late; err != nil {
		t.Fatalf("message that arrived after its sender left: %v", err)
	}
	if _, err := q.pop(1, 7); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("receive from a gone rank with everything delivered: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := q.pop(AnySource, 7)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("wildcard receive returned %v with rank 2 still there", err)
	case <-time.After(20 * time.Millisecond):
	}
	q.push(Message{Src: 2, Tag: 7})
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}
