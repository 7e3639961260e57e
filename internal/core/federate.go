package core

import (
	"fmt"
	"path/filepath"

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
// distinct.
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
		dir := ""
		if opts.DataDir != "" {
			dir = filepath.Join(opts.DataDir, name)
			w, err := journal.OpenWAL(journal.Options{Dir: dir})
			if err != nil {
				return fail(fmt.Errorf("core: open %s journal: %w", name, err))
			}
			jnl = w
		}
		listen := ""
		if i == 0 {
			listen = opts.ListenAddr // a fixed endpoint can only go to one instance
		}
		d := dispatch.New(opts.dispatchConfig(name, listen, jnl, dir))
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

	if err := e.startLocalWorkers(opts); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
