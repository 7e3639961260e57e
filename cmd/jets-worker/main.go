// Command jets-worker is the pilot-job worker agent started on compute
// nodes by allocation scripts (paper §5). It connects to a JETS dispatcher,
// requests work persistently, runs tasks as subprocesses, and streams their
// output back through the service.
//
// Usage:
//
//	jets-worker -dispatcher login1:7001 -id $(hostname) -cores 4 \
//	            -cache /dev/shm/jets
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/worker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jets-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	dispatcher := flag.String("dispatcher", "", "dispatcher address host:port (required)")
	id := flag.String("id", "", "worker id (default hostname-pid)")
	cores := flag.Int("cores", 1, "cores to report")
	cache := flag.String("cache", "", "node-local cache directory for staged files")
	coord := flag.String("coord", "", "interconnect coordinates, e.g. 3,0,7 (first plane keys the dispatcher's scheduling shard)")
	reconnect := flag.Bool("reconnect", false, "redial and re-register after a lost dispatcher connection (capped exponential backoff), surviving dispatcher restarts")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /healthz on this address (empty disables)")
	flag.Parse()

	if *dispatcher == "" {
		return fmt.Errorf("-dispatcher is required")
	}
	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var coords []int
	if *coord != "" {
		for _, part := range strings.Split(*coord, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -coord %q: %v", *coord, err)
			}
			coords = append(coords, v)
		}
	}
	if *cache != "" {
		if err := os.MkdirAll(*cache, 0o755); err != nil {
			return err
		}
	}
	w, err := worker.New(worker.Config{
		ID:             *id,
		Cores:          *cores,
		Coord:          coords,
		DispatcherAddr: *dispatcher,
		Runner:         hydra.ExecRunner{},
		CacheDir:       *cache,
		Reconnect:      *reconnect,
	})
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		worker.RegisterMetrics(reg)
		hydra.RegisterMetrics(reg)
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		// /healthz reports 503 until the worker has registered with its
		// dispatcher (and again after the connection drops), so allocation
		// scripts can probe pilot-job liveness.
		srv.SetHealth(w.Healthy)
		fmt.Printf("jets-worker: metrics on http://%s/metrics (also /healthz)\n", srv.Addr())
	}
	fmt.Printf("jets-worker: %s -> %s\n", *id, *dispatcher)
	return w.Run(ctx)
}
