// Package mpi is a from-scratch message-passing library with MPI semantics,
// standing in for the modified MPICH2 the paper uses. It provides blocking
// point-to-point operations with (source, tag) matching, the collectives its
// applications call, all on one binomial tree (so a job of n ranks opens n-1
// sockets), and two-phase collective writes, over two interchangeable
// transports:
//
//   - a TCP loopback transport bootstrapped through PMI (internal/pmi),
//     reproducing the MPICH2-over-ZeptoOS-sockets path JETS launches; and
//   - an in-process channel transport reproducing the vendor-native fabric
//     ("native" mode in the paper's Fig. 8 comparison).
//
// A JETS-launched user process calls InitEnv, which reads the PMI_* variables
// the Hydra proxy provides, wires up with its peers, and returns the world
// communicator.
package mpi

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"jets/internal/pmi"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// internal tags are negative; user tags must be non-negative.
var errBadTag = errors.New("mpi: user message tags must be >= 0")

// Comm is a communicator: the process's endpoint in a job, owning the
// transport it reaches its peers on.
type Comm struct {
	rank int
	size int
	q    *matchQueue
	tr   transport

	mu      sync.Mutex
	collSeq int
	closed  bool

	// pc is set for PMI-bootstrapped communicators and finalized on Close.
	pc *pmi.Client
}

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return c.size }

// Send delivers data to rank dst with the given tag. Sends are eager: they
// buffer at the receiver and do not block waiting for a matching Recv.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if tag < 0 {
		return errBadTag
	}
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	return c.tr.send(dst, tag, data)
}

// Recv blocks until a message matching (src, tag) arrives. Use AnySource
// and/or AnyTag as wildcards.
func (c *Comm) Recv(src, tag int) (Message, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, errBadTag
	}
	if src != AnySource && (src < 0 || src >= c.size) {
		return Message{}, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	return c.q.pop(src, tag)
}

// nextCollTag reserves a fresh negative tag block for one collective
// operation. MPI requires all ranks to invoke collectives in the same order,
// so sequence numbers agree across the communicator.
func (c *Comm) nextCollTag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.collSeq++
	return -(c.collSeq * 64)
}

// Close finalizes the communicator: the transport is torn down and, for
// PMI-bootstrapped communicators, the rank reports finalize to the process
// manager.
func (c *Comm) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.tr.close()
	if c.pc != nil {
		if ferr := c.pc.Finalize(); err == nil {
			err = ferr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Bootstrap

// InitEnv bootstraps from the PMI_* environment variables set by the Hydra
// proxy, as a JETS-launched executable would.
func InitEnv() (*Comm, error) {
	return InitEnvFrom(map[string]string{
		pmi.EnvPort: os.Getenv(pmi.EnvPort),
		pmi.EnvRank: os.Getenv(pmi.EnvRank),
		pmi.EnvKVS:  os.Getenv(pmi.EnvKVS),
	})
}

// InitEnvFrom bootstraps from an explicit environment map. In-process app
// functions (hydra.FuncRunner) receive their environment this way instead of
// inheriting a process environment.
func InitEnvFrom(env map[string]string) (*Comm, error) {
	addr := env[pmi.EnvPort]
	if addr == "" {
		return nil, errors.New("mpi: " + pmi.EnvPort + " not set")
	}
	rank, err := strconv.Atoi(env[pmi.EnvRank])
	if err != nil {
		return nil, fmt.Errorf("mpi: bad %s: %v", pmi.EnvRank, err)
	}
	return Init(addr, env[pmi.EnvKVS], rank)
}

// Init wires up a TCP-transport communicator for the given rank through the
// PMI endpoint at addr: one exchange that publishes this rank's address and
// learns every peer's, then lazy connect. kvsName names the job at an
// endpoint shared by many and is empty for a job's private one
// (pmi.DialFence). It is the programmatic form of InitEnv.
func Init(addr, kvsName string, rank int) (*Comm, error) {
	q := newMatchQueue()
	tr, err := newTCPTransport(addr, kvsName, rank, q)
	if err != nil {
		return nil, err
	}
	return &Comm{
		rank: rank,
		size: tr.size,
		q:    q,
		tr:   tr,
		pc:   tr.pc,
	}, nil
}

// RunLocal executes fn as an n-process job over the in-process channel
// transport ("native" fabric). It blocks until every rank returns and
// reports the first non-nil error. Communicators are closed automatically.
func RunLocal(n int, fn func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: RunLocal size %d", n)
	}
	fabric := newLocalFabric(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		comm := &Comm{
			rank: rank,
			size: n,
			q:    fabric.queues[rank],
			tr:   &localTransport{fabric: fabric, rank: rank},
		}
		wg.Add(1)
		go func(rank int, comm *Comm) {
			defer wg.Done()
			defer comm.Close()
			errs[rank] = fn(comm)
		}(rank, comm)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", rank, err)
		}
	}
	return nil
}

// RunTCP executes fn as an n-process job over the TCP/PMI path: it stands up
// a PMI server (the mpiexec role), runs n ranks as goroutines each doing the
// full socket wire-up, and reports the first error. This is the test and
// benchmark harness for the "MPICH/sockets" mode.
func RunTCP(n int, fn func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: RunTCP size %d", n)
	}
	srv, err := pmi.NewServer(fmt.Sprintf("kvs_%d", time.Now().UnixNano()), n)
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, err := Init(addr, "", rank)
			if err != nil {
				errs[rank] = err
				return
			}
			defer comm.Close()
			errs[rank] = fn(comm)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", rank, err)
		}
	}
	return nil
}
