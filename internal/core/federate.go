package core

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/router"
	"jets/internal/worker"
)

// newFederatedEngine builds the Options.Federate form of the engine: N
// in-process dispatcher instances (plus any FederatePeers) behind a work
// router. Each instance listens on its own ephemeral endpoint and carries an
// instance label so the shared obs registry keeps every instance's series
// distinct; local workers spread across the instances round-robin, each
// handed the full address rotation for failover.
func newFederatedEngine(opts Options) (*Engine, error) {
	n := opts.Federate
	if n < 1 {
		n = 1
	}
	if opts.Journal != nil {
		return nil, fmt.Errorf("core: Options.Journal is single-dispatcher only; use DataDir for federated durability")
	}

	e := &Engine{}
	fail := func(err error) (*Engine, error) {
		if e.rtr != nil {
			e.rtr.Close()
		}
		for _, d := range e.insts {
			d.Close()
		}
		return nil, err
	}

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("inst%d", i)
		var jnl journal.Journal
		if opts.DataDir != "" {
			w, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(opts.DataDir, name)})
			if err != nil {
				return fail(fmt.Errorf("core: open %s journal: %w", name, err))
			}
			jnl = w
		}
		listen := ""
		if i == 0 {
			listen = opts.ListenAddr // a fixed endpoint can only go to one instance
		}
		spill := ""
		if opts.DataDir != "" {
			spill = spillDir(filepath.Join(opts.DataDir, name))
		}
		d := dispatch.New(dispatch.Config{
			Addr:             listen,
			Instance:         name,
			HeartbeatTimeout: opts.HeartbeatTimeout,
			MaxJobRetries:    opts.MaxJobRetries,
			RetryBackoff:     opts.RetryBackoff,
			RetryBackoffMax:  opts.RetryBackoffMax,
			NewQueue:         opts.NewQueue,
			Shards:           opts.Shards,
			Group:            opts.Group,
			JobTimeout:       opts.JobTimeout,
			OnOutput:         opts.OnOutput,
			OnOutputFrame:    opts.OnOutputFrame,
			OnEvent:          opts.OnEvent,
			WriteCoalesce:    opts.WriteCoalesce,
			Obs:              opts.Obs,
			Journal:          jnl,
			HotQueueJobs:     opts.HotQueueJobs,
			CompactSegments:  opts.CompactSegments,
			SpillDir:         spill,
		})
		addr, err := d.Start()
		if err != nil {
			return fail(err)
		}
		e.insts = append(e.insts, d)
		e.addrs = append(e.addrs, addr)
	}
	e.d = e.insts[0]
	e.addr = e.addrs[0]

	var rjnl journal.Journal
	if opts.DataDir != "" {
		w, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(opts.DataDir, "router")})
		if err != nil {
			return fail(fmt.Errorf("core: open router journal: %w", err))
		}
		rjnl = w
	}
	rtr, err := router.New(router.Config{
		Local:    e.insts,
		Peers:    opts.FederatePeers,
		Journal:  rjnl,
		Obs:      opts.Obs,
		OnOutput: opts.OnOutput,
	})
	if err != nil {
		if rjnl != nil {
			rjnl.Close()
		}
		return fail(err)
	}
	e.rtr = rtr

	if opts.Obs != nil {
		hydra.RegisterMetrics(opts.Obs)
		worker.RegisterMetrics(opts.Obs)
		journal.RegisterMetrics(opts.Obs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	cores := opts.CoresPerWorker
	if cores <= 0 {
		cores = 1
	}
	for i := 0; i < opts.LocalWorkers; i++ {
		// Home instance by round-robin; the rest of the rotation follows in
		// order, so a worker whose instance dies fails over to the next one.
		home := i % len(e.addrs)
		rotation := make([]string, 0, len(e.addrs)-1)
		for k := 1; k < len(e.addrs); k++ {
			rotation = append(rotation, e.addrs[(home+k)%len(e.addrs)])
		}
		w, err := worker.New(worker.Config{
			ID:                fmt.Sprintf("local-%d", i),
			Host:              fmt.Sprintf("localhost/%d", i),
			Cores:             cores,
			Coord:             []int{i % 8, (i / 8) % 8, i / 64},
			DispatcherAddr:    e.addrs[home],
			DispatcherAddrs:   rotation,
			Runner:            opts.Runner,
			HeartbeatInterval: 250 * time.Millisecond,
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go func(w *worker.Worker) {
			defer e.wg.Done()
			w.Run(ctx)
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.workerTotal() < opts.LocalWorkers {
		if time.Now().After(deadline) {
			e.Close()
			return nil, fmt.Errorf("core: only %d/%d local workers registered", e.workerTotal(), opts.LocalWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return e, nil
}
