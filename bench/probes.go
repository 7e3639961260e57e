package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/journal"
	"jets/internal/mpi"
	"jets/internal/pmi"
	"jets/internal/proto"
	"jets/internal/swiftlang"
	"jets/internal/workload"
)

// Isolated probes: tight loops over one layer's public functions, each for
// at least `budget`. A probe runs in the traced pass of the workload whose
// end-to-end numbers its layer should move (probesFor); on the other
// workloads its metrics are reported as 0 = "not on this workload's path".

type probeEnv struct {
	budget time.Duration
	dir    string // scratch directory, fresh
	seed   int64
	sz     sizes // full-size round, for the inputs the probes parse
	bin    string
}

type probe func(probeEnv, map[string]float64) error

var probesFor = map[string][]probe{
	wSeqMem:      {probeProto, probeRunProxy, probeEngineStart, probeRouterTax},
	wSeqDurable:  {probeWALSync, probeSpill},
	wMPIGang:     {probeMPIExec, probePMIWireUp, probeBarrier},
	wPilotExec:   {probeParseInput},
	wSwiftScript: {probeSwift, probeEngineStart},
}

// loopFor calls fn (one operation per call) until the budget is spent and
// returns the mean time per call.
func loopFor(budget time.Duration, fn func() error) (time.Duration, error) {
	start, n := time.Now(), 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
		if el := time.Since(start); el >= budget {
			return el / time.Duration(n), nil
		}
	}
}

// probeProto is one Send plus one Recv of the two hot frame kinds through
// an in-memory stream on the binary codec: pure encode + frame + decode. (A
// proto.Pipe pair would add a goroutine hand-off per frame, which is
// scheduler time, not codec time.)
func probeProto(e probeEnv, m map[string]float64) error {
	task := &proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{
		TaskID: "job174/rank3", JobID: "job174", Cmd: "namd2.sh",
		Args: []string{"input-174.pdb", "output-174.log"},
		Env:  []string{"PMI_RANK=3", "JETS_CACHE=/dev/shm/jets"},
		Rank: 3, Size: 8, Control: "10.0.0.7:51123", KVS: "kvs_job174_1",
	}}
	result := &proto.Envelope{Kind: proto.KindResult, Result: &proto.Result{
		TaskID: "job174/rank3", JobID: "job174", Elapsed: 93 * time.Millisecond,
	}}
	for _, c := range []struct {
		metric string
		env    *proto.Envelope
	}{{"proto.task_roundtrip_ns", task}, {"proto.result_roundtrip_ns", result}} {
		var buf bytes.Buffer
		codec := proto.NewCodec(&buf)
		codec.EnableBinary()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		calls := 0
		per, err := loopFor(e.budget, func() error {
			calls++
			if err := codec.Send(c.env); err != nil {
				return err
			}
			_, err := codec.Recv()
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		m[c.metric] = float64(per.Nanoseconds())
		if c.env == task {
			m["proto.task_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
		}
	}
	return nil
}

// probeRunProxy is the worker's per-task cost with nothing to run: the
// proxy's environment set-up around an in-process no-op.
func probeRunProxy(e probeEnv, m map[string]float64) error {
	runner := hydra.NewFuncRunner()
	workload.RegisterApps(runner)
	task := proto.Task{TaskID: "t", JobID: "j", Cmd: workload.NoopApp}
	per, err := loopFor(e.budget, func() error {
		if res := hydra.RunProxy(context.Background(), &task, runner, io.Discard); res.ExitCode != 0 {
			return fmt.Errorf("noop task exited %d: %s", res.ExitCode, res.Err)
		}
		return nil
	})
	m["hydra.runproxy_noop_ns"] = float64(per.Nanoseconds())
	return err
}

// probeEngineStart is NewEngine until 8 local workers have registered.
func probeEngineStart(e probeEnv, m map[string]float64) error {
	per, err := loopFor(e.budget, func() error {
		eng, err := core.NewEngine(engineDefaults())
		if err != nil {
			return err
		}
		eng.Close()
		return nil
	})
	// Close is inside the loop but the user does not wait for it at start;
	// it is a small, constant part of the figure.
	m["core.engine_start_ms"] = float64(per.Microseconds()) / 1e3
	return err
}

// probeRouterTax prices the federation tier: the same windowed noop loop on
// one dispatcher and behind a router over four, as extra time per job.
func probeRouterTax(e probeEnv, m map[string]float64) error {
	n := max(e.sz.SeqMem/3, 64)
	ids := jobIDs(e.seed, n)
	perJob := func(federate int) (float64, error) {
		opts := engineDefaults()
		opts.Federate = federate
		eng, err := core.NewEngine(opts)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		var wg sync.WaitGroup
		var failed atomic.Int64
		wg.Add(n)
		sem := make(chan struct{}, 64)
		start := time.Now()
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			h, err := eng.Submit(seqJob(ids[i]))
			if err != nil {
				return 0, err
			}
			h.OnDone(func(r dispatch.JobResult) {
				if r.Failed {
					failed.Add(1)
				}
				<-sem
				wg.Done()
			})
		}
		wg.Wait()
		if f := failed.Load(); f > 0 {
			return 0, fmt.Errorf("federate=%d: %d jobs failed", federate, f)
		}
		return float64(time.Since(start).Microseconds()) / float64(n), nil
	}
	one, err := perJob(1)
	if err != nil {
		return err
	}
	four, err := perJob(4)
	if err != nil {
		return err
	}
	m["router.tax_us_per_job"] = four - one
	return nil
}

func noopRecord(id string) journal.Record {
	return journal.Record{Kind: journal.Submitted, JobID: id, NProcs: 1, Cmd: workload.NoopApp}
}

// probeWALSync is the group-commit cost: one explicit Sync (write + fdatasync)
// after 1000 buffered appends. The flusher's own cadence is set far out so
// every commit is the timed one.
func probeWALSync(e probeEnv, m map[string]float64) error {
	wal, err := journal.OpenWAL(journal.Options{Dir: filepath.Join(e.dir, "probe-wal"), FsyncInterval: time.Hour})
	if err != nil {
		return err
	}
	defer wal.Close()
	ids := jobIDs(e.seed, 1000)
	var syncing time.Duration
	syncs := 0
	_, err = loopFor(e.budget, func() error {
		for _, id := range ids {
			if err := wal.Append(noopRecord(id)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		err := wal.Sync()
		syncing += time.Since(t0)
		syncs++
		return err
	})
	m["journal.sync_ms"] = float64(syncing.Microseconds()) / 1e3 / float64(syncs)
	return err
}

// probeSpill is the cold-queue round trip per record: Put, then GetBatch in
// the read-ahead's batches of 1024.
func probeSpill(e probeEnv, m map[string]float64) error {
	sp, err := journal.OpenSpill(filepath.Join(e.dir, "probe-spill"), 0)
	if err != nil {
		return err
	}
	defer sp.Close()
	const batch = 1024
	ids := jobIDs(e.seed, 64*batch)
	var putting, getting time.Duration
	records := 0
	_, err = loopFor(e.budget, func() error {
		t0 := time.Now()
		for _, id := range ids {
			if _, err := sp.Put(noopRecord(id)); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for lo := 0; lo < len(ids); lo += batch {
			got, err := sp.GetBatch(ids[lo : lo+batch])
			if err != nil {
				return err
			}
			if len(got) != batch {
				return fmt.Errorf("GetBatch returned %d of %d records", len(got), batch)
			}
		}
		putting, getting = putting+t1.Sub(t0), getting+time.Since(t1)
		records += len(ids)
		for _, id := range ids {
			sp.Remove(id)
		}
		return nil
	})
	m["journal.spill_put_ns"] = float64(putting.Nanoseconds()) / float64(records)
	m["journal.spill_getbatch_ns"] = float64(getting.Nanoseconds()) / float64(records)
	return err
}

// probeMPIExec is the per-MPI-job service start: a PMI server on a fresh
// loopback port, and its teardown.
func probeMPIExec(e probeEnv, m map[string]float64) error {
	spec := hydra.JobSpec{JobID: "probe", NProcs: 8, Cmd: workload.BarrierApp}
	per, err := loopFor(e.budget, func() error {
		x, err := hydra.StartMPIExec(spec)
		if err != nil {
			return err
		}
		return x.Close()
	})
	m["hydra.mpiexec_start_us"] = float64(per.Nanoseconds()) / 1e3
	return err
}

// probePMIWireUp is the full PMI bootstrap of an 8-rank job: every rank
// dials, puts its address, barriers, gets all eight, finalizes.
func probePMIWireUp(e probeEnv, m map[string]float64) error {
	const ranks = 8
	i := 0
	per, err := loopFor(e.budget, func() error {
		i++
		srv, err := pmi.NewServer(fmt.Sprintf("probe%d", i), ranks)
		if err != nil {
			return err
		}
		defer srv.Close()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		errs := make(chan error, ranks)
		for rank := 0; rank < ranks; rank++ {
			go func() { errs <- pmiRank(addr, rank, ranks) }()
		}
		var first error
		for rank := 0; rank < ranks; rank++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	m["pmi.wireup_8rank_ms"] = float64(per.Microseconds()) / 1e3
	return err
}

func pmiRank(addr string, rank, ranks int) error {
	c, err := pmi.Dial(addr, rank)
	if err != nil {
		return err
	}
	if err := c.Put(fmt.Sprintf("addr-%d", rank), fmt.Sprintf("h%d", rank)); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	for p := 0; p < ranks; p++ {
		if _, err := c.Get(fmt.Sprintf("addr-%d", p)); err != nil {
			return err
		}
	}
	return c.Finalize()
}

// probeBarrier is one barrier of a wired-up 4-rank job on the TCP transport.
// The count is fixed from the budget (every rank must do the same number),
// at about 20k barriers per budgeted second.
func probeBarrier(e probeEnv, m map[string]float64) error {
	n := max(int(e.budget.Seconds()*20000), 100)
	var perBarrier atomic.Int64
	err := mpi.RunTCP(4, func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil { // connections are dialed lazily
			return err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			perBarrier.Store(int64(time.Since(start)) / int64(n))
		}
		return nil
	})
	m["mpi.barrier4_tcp_us"] = float64(perBarrier.Load()) / 1e3
	return err
}

// probeParseInput is ParseInput of the pilot-exec job file.
func probeParseInput(e probeEnv, m map[string]float64) error {
	text := pilotJobFile(e.seed, e.sz.PilotSeq, e.sz.PilotMPI, filepath.Join(e.bin, "barrier"))
	per, err := loopFor(e.budget, func() error {
		_, err := core.ParseInput(strings.NewReader(text))
		return err
	})
	m["core.parse_input_ms"] = float64(per.Nanoseconds()) / 1e6
	return err
}

// countingExecutor completes every invocation at once, so a compiled run
// against it is the script layer alone.
type countingExecutor struct{ n atomic.Int64 }

func (x *countingExecutor) Execute(context.Context, swiftlang.AppInvocation) error {
	x.n.Add(1)
	return nil
}

func (x *countingExecutor) ExecuteAsync(_ context.Context, _ swiftlang.AppInvocation, done func(error)) {
	x.n.Add(1)
	done(nil)
}

// probeSwift is the script layer of swift-script: parse, compile, and task
// generation by the compiled program against an executor that does nothing.
func probeSwift(e probeEnv, m map[string]float64) error {
	src := swiftScript(e.seed, e.sz.SwiftN)
	var prog *swiftlang.Program
	per, err := loopFor(e.budget/4, func() (err error) {
		prog, err = swiftlang.Parse(src)
		return err
	})
	if err != nil {
		return err
	}
	m["swiftlang.parse_ms"] = float64(per.Nanoseconds()) / 1e6
	var compiled *swiftlang.CompiledProgram
	per, _ = loopFor(e.budget/4, func() error {
		compiled = swiftlang.Compile(prog)
		return nil
	})
	m["swiftlang.compile_ms"] = float64(per.Nanoseconds()) / 1e6
	workdir := filepath.Join(e.dir, "probe-swift")
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	tasks := int64(0)
	start := time.Now()
	_, err = loopFor(e.budget, func() error {
		ex := &countingExecutor{}
		if err := compiled.Run(context.Background(), swiftlang.Config{Executor: ex, WorkDir: workdir}); err != nil {
			return err
		}
		if got, want := ex.n.Load(), int64(2*e.sz.SwiftN); got != want {
			return fmt.Errorf("script generated %d tasks, want %d", got, want)
		}
		tasks += ex.n.Load()
		return nil
	})
	m["swiftlang.generate_tasks_per_s"] = float64(tasks) / time.Since(start).Seconds()
	return err
}
