// Command jets is the stand-alone JETS tool (paper §5.1): it reads a job
// list, schedules the jobs over pilot-job workers, and prints per-batch
// statistics including Eq. (1) utilization.
//
// Usage:
//
//	jets -input jobs.txt -workers 8
//	jets -input jobs.txt -listen 0.0.0.0:7001        # external workers
//
// Input format, one job per line:
//
//	MPI: 4 namd2.sh input-1.pdb output-1.log
//	SEQ: hostname -f
//	hostname -f
//
// Commands run as real subprocesses (hydra.ExecRunner). MPI jobs receive the
// PMI_* environment, so executables built against jets' internal/mpi (or any
// PMI-1 client) wire up with their peers automatically.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/obs"
	"jets/internal/obs/obshttp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jets:", err)
		os.Exit(1)
	}
}

func run() error {
	input := flag.String("input", "", "job list file ('-' for stdin)")
	workers := flag.Int("workers", 4, "local worker agents to start")
	cores := flag.Int("cores", 1, "cores reported per local worker")
	retries := flag.Int("retries", 0, "automatic retries for jobs lost to worker faults")
	timeout := flag.Duration("timeout", 0, "per-job wall limit (0 = none)")
	batchTimeout := flag.Duration("batch-timeout", time.Hour, "whole-batch limit")
	shards := flag.Int("shards", 0, "scheduling shards in the dispatcher (0 = derive from GOMAXPROCS)")
	outDir := flag.String("output", "", "directory for task stdout files (empty discards)")
	format := flag.String("format", "lines", "input format: lines (MPI:/SEQ:) or json")
	tracePath := flag.String("trace", "", "write a JSON-lines dispatcher event trace to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /healthz on this address (e.g. 127.0.0.1:9090; empty disables)")
	listen := flag.String("listen", "", "dispatcher listen address for external workers (e.g. 0.0.0.0:7001; empty binds an ephemeral loopback port)")
	dataDir := flag.String("data-dir", "", "directory for the crash-safe dispatcher journal; on restart, uncompleted jobs from a previous run are recovered and re-run (empty disables durability)")
	hotQueue := flag.Int("hot-queue", 0, "max fully-hydrated queued jobs held in memory per scheduling shard; the excess backlog spills to disk (0 = default, negative disables spilling)")
	flag.Parse()

	if *input == "" {
		return fmt.Errorf("-input is required (see -h)")
	}
	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var onOutput func(taskID, stream string, data []byte)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		onOutput = newOutputDir(*outDir).Write
	}

	var tracer *dispatch.TraceRecorder
	var onEvent func(dispatch.Event)
	if *tracePath != "" {
		tracer = &dispatch.TraceRecorder{}
		onEvent = tracer.Record
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	eng, err := core.NewEngine(core.Options{
		LocalWorkers:   *workers,
		CoresPerWorker: *cores,
		Runner:         hydra.ExecRunner{},
		ListenAddr:     *listen,
		MaxJobRetries:  *retries,
		JobTimeout:     *timeout,
		Shards:         *shards,
		OnOutput:       onOutput,
		OnEvent:        onEvent,
		Obs:            reg,
		DataDir:        *dataDir,
		HotQueueJobs:   *hotQueue,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Printf("jets: dispatcher on %s, %d local workers\n", eng.Addr(), *workers)
	recovered := eng.RecoveredJobs()
	if rerr := eng.RecoveryError(); rerr != nil {
		fmt.Fprintf(os.Stderr, "jets: journal replay: %v (recovery is partial)\n", rerr)
	}
	if len(recovered) > 0 {
		fmt.Printf("jets: recovered %d uncompleted jobs from %s\n", len(recovered), *dataDir)
	}
	if *metricsAddr != "" {
		srv, err := obshttp.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		srv.SetHealth(eng.Health)
		fmt.Printf("jets: metrics on http://%s/metrics (also /debug/vars, /debug/pprof, /healthz)\n", srv.Addr())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	ctx, cancelT := context.WithTimeout(ctx, *batchTimeout)
	defer cancelT()

	handler, err := core.HandlerFor(*format)
	if err != nil {
		return err
	}
	rep, err := eng.RunHandler(ctx, handler, in)
	if err != nil {
		return err
	}
	// The batch above only covers this run's submissions; jobs inherited
	// from a crashed predecessor complete on the same workers and are
	// reported separately.
	recFailed := 0
	for _, h := range recovered {
		select {
		case <-h.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
		if res, ok := h.TryResult(); ok && res.Failed {
			recFailed++
			fmt.Printf("FAILED %s (recovered): %s\n", res.JobID, res.Err)
		}
	}
	if len(recovered) > 0 {
		fmt.Printf("recovered:   %d jobs (%d failed)\n", len(recovered), recFailed)
	}
	if tracer != nil {
		// Close (idempotent) flushes the dispatcher's buffered event tail
		// before the trace is written, so the file carries the full batch.
		eng.Close()
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace:       %s (%d events)\n", *tracePath, tracer.Count(""))
	}
	fmt.Print(core.FormatReport(rep))
	for _, r := range rep.Results {
		if r.Failed {
			fmt.Printf("FAILED %s: %s\n", r.JobID, r.Err)
		}
	}
	if n := rep.Failed() + recFailed; n > 0 {
		return fmt.Errorf("%d jobs failed", n)
	}
	return nil
}

// outputDir writes task output chunks to one file per task. Write runs on
// every worker link's reader goroutine at once, so mu serialises it. No
// descriptor is held between chunks, so a batch of any size stays within
// the process's descriptor limit: each chunk opens its task's file to
// append, and a task's first chunk truncates what an earlier run left.
type outputDir struct {
	dir  string
	mu   sync.Mutex
	seen map[string]bool // tasks whose file this run has truncated
}

func newOutputDir(dir string) *outputDir {
	return &outputDir{dir: dir, seen: map[string]bool{}}
}

func (o *outputDir) Write(taskID, stream string, data []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if !o.seen[taskID] {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(filepath.Join(o.dir, sanitize(taskID)+".out"), flags, 0o644)
	if err == nil {
		o.seen[taskID] = true
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jets: output of %s: %v\n", taskID, err)
	}
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == '/' || c == ':' {
			out[i] = '_'
		}
	}
	return string(out)
}
