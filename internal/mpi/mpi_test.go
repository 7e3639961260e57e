package mpi

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// jobRunners are the two harnesses every semantic test runs under: the
// in-process ("native") and the TCP/PMI ("sockets") transport.
var jobRunners = []struct {
	name string
	run  func(n int, fn func(c *Comm) error) error
}{{"local", RunLocal}, {"tcp", RunTCP}}

// forEachTransport runs the body under both transports so every semantic test
// covers both paths.
func forEachTransport(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	for _, jr := range jobRunners {
		t.Run(jr.name, func(t *testing.T) {
			if err := jr.run(n, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRankSize(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size=%d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 4 {
			return fmt.Errorf("rank=%d", c.Rank())
		}
		return nil
	})
}

func TestSendRecvRing(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		msg := []byte(fmt.Sprintf("from-%d", c.Rank()))
		if err := c.Send(next, 7, msg); err != nil {
			return err
		}
		m, err := c.Recv(prev, 7)
		if err != nil {
			return err
		}
		want := fmt.Sprintf("from-%d", prev)
		if string(m.Data) != want {
			return fmt.Errorf("got %q want %q", m.Data, want)
		}
		if m.Src != prev || m.Tag != 7 {
			return fmt.Errorf("src=%d tag=%d", m.Src, m.Tag)
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if err := c.Send(c.Rank(), 3, []byte("hi")); err != nil {
			return err
		}
		m, err := c.Recv(c.Rank(), 3)
		if err != nil {
			return err
		}
		if string(m.Data) != "hi" {
			return fmt.Errorf("got %q", m.Data)
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tags out of the order the receiver asks for them.
			if err := c.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			if err := c.Send(1, 20, []byte("twenty")); err != nil {
				return err
			}
			return nil
		}
		m, err := c.Recv(0, 20)
		if err != nil {
			return err
		}
		if string(m.Data) != "twenty" {
			return fmt.Errorf("tag 20 got %q", m.Data)
		}
		m, err = c.Recv(0, 10)
		if err != nil {
			return err
		}
		if string(m.Data) != "ten" {
			return fmt.Errorf("tag 10 got %q", m.Data)
		}
		return nil
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if m.Data[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, m.Data[0])
			}
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	forEachTransport(t, 4, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			m, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if m.Src != m.Tag || int(m.Data[0]) != m.Src {
				return fmt.Errorf("inconsistent message %+v", m)
			}
			if seen[m.Src] {
				return fmt.Errorf("duplicate from %d", m.Src)
			}
			seen[m.Src] = true
		}
		return nil
	})
}

func TestNegativeUserTagRejected(t *testing.T) {
	if err := RunLocal(1, func(c *Comm) error {
		if err := c.Send(0, -5, nil); err == nil {
			return fmt.Errorf("negative send tag accepted")
		}
		if _, err := c.Recv(0, -5); err == nil {
			return fmt.Errorf("negative recv tag accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	if err := RunLocal(2, func(c *Comm) error {
		if err := c.Send(9, 1, nil); err == nil {
			return fmt.Errorf("send to rank 9 accepted")
		}
		if _, err := c.Recv(9, 1); err == nil {
			return fmt.Errorf("recv from rank 9 accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// Counter pattern: all ranks send to 0 before barrier; after the
			// barrier every pre-barrier message must be queued at rank 0.
			if err := RunLocal(n, func(c *Comm) error {
				if err := c.Send(0, 1, nil); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if _, err := c.Recv(AnySource, 1); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierManyRounds(t *testing.T) {
	forEachTransport(t, 6, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				if err := RunLocal(n, func(c *Comm) error {
					var data []byte
					if c.Rank() == root {
						data = []byte("payload")
					}
					got, err := c.Bcast(root, data)
					if err != nil {
						return err
					}
					if string(got) != "payload" {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	if err := RunLocal(2, func(c *Comm) error {
		if _, err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGather gathers at every root of every tree shape: the root must get
// each rank's part in its place after the rotation, the others nil.
func TestGather(t *testing.T) {
	for _, jr := range jobRunners {
		t.Run(jr.name, func(t *testing.T) {
			for _, n := range treeSizes {
				for root := 0; root < n; root++ {
					err := jr.run(n, func(c *Comm) error {
						parts, err := c.Gather(root, []byte(fmt.Sprintf("part %d", c.Rank())))
						if err != nil {
							return err
						}
						if c.Rank() != root {
							if parts != nil {
								return fmt.Errorf("non-root rank %d got parts %q", c.Rank(), parts)
							}
							return nil
						}
						if len(parts) != n {
							return fmt.Errorf("%d parts, want %d", len(parts), n)
						}
						for i, p := range parts {
							if string(p) != fmt.Sprintf("part %d", i) {
								return fmt.Errorf("parts[%d] = %q", i, p)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("n=%d root=%d: %v", n, root, err)
					}
				}
			}
		})
	}
}

func TestAllgather(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		parts, err := c.Allgather([]byte(fmt.Sprintf("r%d", c.Rank())))
		if err != nil {
			return err
		}
		for i, p := range parts {
			if string(p) != fmt.Sprintf("r%d", i) {
				return fmt.Errorf("rank %d parts[%d]=%q", c.Rank(), i, p)
			}
		}
		return nil
	})
}

func TestReduceFloat64(t *testing.T) {
	forEachTransport(t, 7, func(c *Comm) error {
		in := []float64{float64(c.Rank()), 1}
		out, err := c.ReduceFloat64(0, OpSum, in)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if out != nil {
				return fmt.Errorf("non-root got result")
			}
			return nil
		}
		wantSum := float64(0 + 1 + 2 + 3 + 4 + 5 + 6)
		if math.Abs(out[0]-wantSum) > 1e-9 || math.Abs(out[1]-7) > 1e-9 {
			return fmt.Errorf("got %v", out)
		}
		return nil
	})
}

func TestAllreduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want float64 // for ranks 1..4 input (rank+1)
	}{
		{OpSum, 10}, {OpMax, 4}, {OpMin, 1}, {OpProd, 24},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.op.String(), func(t *testing.T) {
			if err := RunLocal(4, func(c *Comm) error {
				out, err := c.AllreduceFloat64(tc.op, []float64{float64(c.Rank() + 1)})
				if err != nil {
					return err
				}
				if math.Abs(out[0]-tc.want) > 1e-9 {
					return fmt.Errorf("rank %d: got %v want %v", c.Rank(), out[0], tc.want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceInt64(t *testing.T) {
	forEachTransport(t, 5, func(c *Comm) error {
		out, err := c.AllreduceInt64(OpMax, []int64{int64(c.Rank()), -int64(c.Rank())})
		if err != nil {
			return err
		}
		if out[0] != 4 || out[1] != 0 {
			return fmt.Errorf("got %v", out)
		}
		return nil
	})
}

func TestReduceLengthMismatch(t *testing.T) {
	if err := RunLocal(2, func(c *Comm) error {
		var in []float64
		if c.Rank() == 0 {
			in = []float64{1, 2}
		} else {
			in = []float64{1}
		}
		_, err := c.ReduceFloat64(0, OpSum, in)
		if c.Rank() == 0 && err == nil {
			return fmt.Errorf("length mismatch accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvAfterCloseErrors(t *testing.T) {
	fabric := newLocalFabric(1)
	c := &Comm{rank: 0, size: 1, q: fabric.queues[0], tr: &localTransport{fabric: fabric, rank: 0}}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(0, 1); err != ErrCommClosed {
		t.Fatalf("got %v want ErrCommClosed", err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestRunLocalPropagatesError(t *testing.T) {
	err := RunLocal(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("got %v", err)
	}
}

func TestRunLocalBadSize(t *testing.T) {
	if err := RunLocal(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("want error for size 0")
	}
	if err := RunTCP(-1, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("want error for negative size")
	}
}

func TestLargeMessageTCP(t *testing.T) {
	if err := RunTCP(2, func(c *Comm) error {
		big := bytes.Repeat([]byte{0xAB}, 4<<20)
		if c.Rank() == 0 {
			return c.Send(1, 1, big)
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(m.Data, big) {
			return fmt.Errorf("payload corrupted: len=%d", len(m.Data))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSenderBufferReuse(t *testing.T) {
	// MPI semantics: after Send returns, the sender may scribble on its
	// buffer without corrupting the message.
	if err := RunLocal(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99
			return nil
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if m.Data[0] != 1 {
			return fmt.Errorf("receiver saw sender's buffer mutation")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(v []float64) bool {
		got, err := BytesToFloat64s(Float64sToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.IsNaN(v[i]) {
				if !math.IsNaN(got[i]) {
					return false
				}
				continue
			}
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v []int64) bool {
		got, err := BytesToInt64s(Int64sToBytes(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := BytesToFloat64s(make([]byte, 7)); err == nil {
		t.Error("7-byte float payload accepted")
	}
	if _, err := BytesToInt64s(make([]byte, 9)); err == nil {
		t.Error("9-byte int payload accepted")
	}
}

func TestPackPartsRoundTripProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		blob := packParts(parts)
		got, err := unpackParts(blob, len(parts))
		if err != nil || len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackPartsErrors(t *testing.T) {
	if _, err := unpackParts(nil, 1); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := unpackParts(packParts([][]byte{{1}}), 2); err == nil {
		t.Error("wrong count accepted")
	}
	blob := packParts([][]byte{{1, 2, 3}})
	if _, err := unpackParts(blob[:len(blob)-1], 1); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := unpackParts(blob[:5], 1); err == nil {
		t.Error("truncated header accepted")
	}
}

// Property: barrier-sleep-barrier pattern (the paper's synthetic benchmark
// app) completes for arbitrary small sizes.
func TestSyntheticBarrierAppProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		err := RunLocal(n, func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			// "work"
			if err := c.Barrier(); err != nil {
				return err
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
