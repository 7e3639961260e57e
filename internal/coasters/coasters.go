// Package coasters reimplements the Coasters service layer JETS integrates
// with (§4.1, Fig. 3): a persistent service that provisions pilot-job
// workers in blocks through an underlying provider, accepts task
// submissions over an RPC connection (the Swift execution layer is one
// client), schedules them onto the worker pool via the JETS dispatcher, and
// carries file staging over the same connection, removing the need for a
// separate data transfer mechanism.
//
// Bulk traffic travels on a binary data plane (dataplane.go), where each
// client's frames queue in a bounded proto.Outbox.
//
// The "multiple-job-size spectrum" block allocator of the paper's future
// work (§7) is implemented as an optional policy: instead of one monolithic
// block, worker capacity is requested as a spectrum of block sizes so
// partial allocations become usable earlier under unknown queue conditions.
package coasters

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/proto"
	"jets/internal/worker"
)

// Provider boots pilot-job workers that connect to a dispatcher — the
// underlying execution provider (local, ssh, PBS, Cobalt in the paper).
type Provider interface {
	// Boot starts n workers pointed at the dispatcher address and returns a
	// releasable block.
	Boot(ctx context.Context, n int, dispatcherAddr string) (Block, error)
}

// Block is one pilot-job allocation.
type Block interface {
	ID() string
	Size() int
	// Release tears the block's workers down.
	Release()
}

// LocalProvider boots in-process workers backed by a shared Runner, the
// single-machine analogue of a cluster allocation.
type LocalProvider struct {
	Runner hydra.Runner
	Cores  int
	// CacheDir, when set, gives every booted worker a private node-local
	// cache subdirectory beneath it, enabling stage frames.
	CacheDir string

	mu  sync.Mutex
	seq int
}

type localBlock struct {
	id      string
	size    int
	cancel  context.CancelFunc
	wg      *sync.WaitGroup
	workers []*worker.Worker
}

func (b *localBlock) ID() string { return b.id }
func (b *localBlock) Size() int  { return b.size }
func (b *localBlock) Release() {
	b.cancel()
	for _, w := range b.workers {
		w.Kill()
	}
	b.wg.Wait()
}

// Boot implements Provider.
func (p *LocalProvider) Boot(ctx context.Context, n int, addr string) (Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coasters: block size %d", n)
	}
	p.mu.Lock()
	p.seq++
	id := fmt.Sprintf("block-%d", p.seq)
	p.mu.Unlock()
	bctx, cancel := context.WithCancel(context.Background())
	blk := &localBlock{id: id, size: n, cancel: cancel, wg: &sync.WaitGroup{}}
	cores := p.Cores
	if cores <= 0 {
		cores = 1
	}
	for i := 0; i < n; i++ {
		var cacheDir string
		if p.CacheDir != "" {
			cacheDir = filepath.Join(p.CacheDir, fmt.Sprintf("%s-w%d", id, i))
			if err := os.MkdirAll(cacheDir, 0o755); err != nil {
				cancel()
				return nil, err
			}
		}
		w, err := worker.New(worker.Config{
			ID:                fmt.Sprintf("%s/w%d", id, i),
			Cores:             cores,
			DispatcherAddr:    addr,
			Runner:            p.Runner,
			HeartbeatInterval: 250 * time.Millisecond,
			CacheDir:          cacheDir,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		blk.workers = append(blk.workers, w)
		blk.wg.Add(1)
		go func(w *worker.Worker) {
			defer blk.wg.Done()
			w.Run(bctx)
		}(w)
	}
	return blk, nil
}

// SpectrumSizes decomposes a worker demand into the §7 spectrum of block
// sizes: halving blocks down to a minimum, so some capacity arrives even if
// large blocks queue. The sizes sum to at least n.
func SpectrumSizes(n, min int) []int {
	if n <= 0 {
		return nil
	}
	if min < 1 {
		min = 1
	}
	var out []int
	remaining := n
	size := n / 2
	for remaining > 0 {
		if size < min {
			size = min
		}
		if size > remaining {
			size = remaining
		}
		out = append(out, size)
		remaining -= size
		size /= 2
	}
	return out
}

// Config parameterizes the service.
type Config struct {
	Provider Provider
	// Spectrum enables the multi-size block allocator.
	Spectrum bool
	// SpectrumMin is the smallest spectrum block; default 1.
	SpectrumMin int
	// Dispatch configures the embedded JETS dispatcher.
	Dispatch dispatch.Config
	// BootTimeout bounds waiting for requested workers; default 30s.
	BootTimeout time.Duration
}

// Service is a running CoasterService.
type Service struct {
	cfg Config
	d   *dispatch.Dispatcher

	mu        sync.Mutex
	blocks    []Block
	closed    bool
	listeners []net.Listener

	staged map[string][]byte // staging area (service-side file store)

	subMu      sync.RWMutex
	subs       map[*subscriber]struct{} // data-plane output subscribers
	droppedOut atomic.Int64

	stagedFiles atomic.Int64 // files accepted into the staging store
	stagedBytes atomic.Int64 // payload bytes accepted into the staging store
}

// NewService starts the embedded dispatcher and returns the service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Provider == nil {
		return nil, errors.New("coasters: provider required")
	}
	if cfg.BootTimeout <= 0 {
		cfg.BootTimeout = 30 * time.Second
	}
	s := &Service{staged: map[string][]byte{}, subs: map[*subscriber]struct{}{}}
	// Chain the raw output hook: the service's data-plane relay runs first,
	// then whatever the embedder wired (both borrow the frame).
	userHook := cfg.Dispatch.OnOutputFrame
	cfg.Dispatch.OnOutputFrame = func(f *proto.Frame) {
		s.relayOutput(f)
		if userHook != nil {
			userHook(f)
		}
	}
	d := dispatch.New(cfg.Dispatch)
	if _, err := d.Start(); err != nil {
		return nil, err
	}
	s.cfg = cfg
	s.d = d
	if cfg.Dispatch.Obs != nil {
		s.registerObs(cfg.Dispatch.Obs)
	}
	return s, nil
}

// registerObs exports the service's data-plane and staging state through the
// same registry the embedded dispatcher uses. All series are sampled at
// scrape time from state the service already maintains.
func (s *Service) registerObs(reg *obs.Registry) {
	reg.CounterFunc("jets_dataplane_dropped_outputs_total",
		"output frames dropped because a data-plane subscriber outbox was full", s.droppedOut.Load)
	reg.CounterFunc("jets_stage_files_total",
		"files accepted into the service staging store", s.stagedFiles.Load)
	reg.CounterFunc("jets_stage_bytes_total",
		"payload bytes accepted into the service staging store", s.stagedBytes.Load)
	reg.GaugeFunc("jets_dataplane_subscribers",
		"connected data-plane output subscribers", func() float64 {
			s.subMu.RLock()
			defer s.subMu.RUnlock()
			return float64(len(s.subs))
		})
	reg.GaugeFunc("jets_dataplane_queue_depth",
		"relayed output frames buffered across all subscriber outboxes", func() float64 {
			s.subMu.RLock()
			defer s.subMu.RUnlock()
			n := 0
			for sub := range s.subs {
				n += sub.out.Len()
			}
			return float64(n)
		})
}

// Dispatcher exposes the embedded JETS dispatcher.
func (s *Service) Dispatcher() *dispatch.Dispatcher { return s.d }

// Workers reports current pool size.
func (s *Service) Workers() int { return s.d.Workers() }

// EnsureWorkers grows the pool to at least n workers, allocating one block
// or a spectrum of blocks, and waits until they register.
func (s *Service) EnsureWorkers(ctx context.Context, n int) error {
	have := s.d.Workers()
	if have >= n {
		return nil
	}
	need := n - have
	sizes := []int{need}
	if s.cfg.Spectrum {
		sizes = SpectrumSizes(need, s.cfg.SpectrumMin)
	}
	for _, size := range sizes {
		blk, err := s.cfg.Provider.Boot(ctx, size, s.d.Addr())
		if err != nil {
			return fmt.Errorf("coasters: boot block of %d: %w", size, err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			blk.Release()
			return errors.New("coasters: service closed")
		}
		s.blocks = append(s.blocks, blk)
		s.mu.Unlock()
	}
	deadline := time.Now().Add(s.cfg.BootTimeout)
	for s.d.Workers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("coasters: only %d/%d workers registered", s.d.Workers(), n)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Submit schedules one job, growing the pool if an MPI job needs more
// workers than exist (the paper's MPI-aware Coasters allocation: "the
// CoasterService waits for the appropriate number of available worker nodes
// before launching the mpiexec control mechanism").
func (s *Service) Submit(ctx context.Context, job dispatch.Job) (*dispatch.Handle, error) {
	if job.Type == dispatch.MPI && job.Spec.NProcs > s.d.Workers() {
		if err := s.EnsureWorkers(ctx, job.Spec.NProcs); err != nil {
			return nil, err
		}
	}
	return s.d.Submit(job)
}

// Put stores a staged file in the service store (data transfer over the
// client channel).
func (s *Service) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.staged[name] = append([]byte(nil), data...)
	s.stagedFiles.Add(1)
	s.stagedBytes.Add(int64(len(data)))
	// Forward to worker-local caches as well.
	go s.d.StageFile(name, data)
}

// Get retrieves a staged file.
func (s *Service) Get(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.staged[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Blocks reports the allocated block count.
func (s *Service) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// Close releases every block and stops the dispatcher.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	blocks := s.blocks
	s.blocks = nil
	listeners := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	s.d.Close()
	for _, b := range blocks {
		b.Release()
	}
}
