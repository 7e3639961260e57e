package jets

// One benchmark per evaluation figure (plus ablations and real-runtime
// microbenchmarks). Figure benchmarks at Blue Gene/P scale drive the
// discrete-event simulator; messaging and dispatcher benchmarks run the real
// implementation. Custom metrics carry the figure's headline number (jobs/s,
// utilization) so `go test -bench` output reads like the paper's tables.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/dispatch"
	"jets/internal/event"
	"jets/internal/event/legacy"
	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/obs"
	"jets/internal/pmi"
	"jets/internal/proto"
	"jets/internal/simjets"
	"jets/internal/swiftlang"
	"jets/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure benchmarks (simulator)

func BenchmarkFig06SequentialRate(b *testing.B) {
	for _, nodes := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rows := simjets.Fig06SequentialRate([]int{nodes}, 20, int64(i+1))
				rate = rows[0].JobsPerSec
			}
			b.ReportMetric(rate, "jobs/s")
		})
	}
}

func BenchmarkFig07ClusterUtilization(b *testing.B) {
	for _, alloc := range []int{16, 64} {
		b.Run(fmt.Sprintf("alloc=%d", alloc), func(b *testing.B) {
			var jets4, shell float64
			for i := 0; i < b.N; i++ {
				for _, r := range simjets.Fig07Cluster([]int{alloc}, int64(i+1)) {
					switch r.Mode {
					case "jets-4proc":
						jets4 = r.Utilization
					case "shell-script":
						shell = r.Utilization
					}
				}
			}
			b.ReportMetric(100*jets4, "jets-util-%")
			b.ReportMetric(100*shell, "shell-util-%")
		})
	}
}

func BenchmarkFig08PingPong(b *testing.B) {
	for _, size := range []int{64, 4096, 262144} {
		payload := make([]byte, size)
		run := func(b *testing.B, tcp bool) {
			var perMsg time.Duration
			body := func(c *mpi.Comm) error {
				if err := c.Barrier(); err != nil {
					return err
				}
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(1, 1, payload); err != nil {
							return err
						}
						if _, err := c.Recv(1, 2); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(0, 1); err != nil {
							return err
						}
						if err := c.Send(0, 2, payload); err != nil {
							return err
						}
					}
				}
				if c.Rank() == 0 {
					perMsg = time.Since(start) / time.Duration(2*b.N)
				}
				return nil
			}
			var err error
			if tcp {
				err = mpi.RunTCP(2, body)
			} else {
				err = mpi.RunLocal(2, body)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(perMsg.Nanoseconds()), "ns/msg")
			b.SetBytes(int64(size))
		}
		b.Run(fmt.Sprintf("native/size=%d", size), func(b *testing.B) { run(b, false) })
		b.Run(fmt.Sprintf("sockets/size=%d", size), func(b *testing.B) { run(b, true) })
	}
}

func BenchmarkFig09BGPUtilization(b *testing.B) {
	for _, alloc := range []int{512, 1024} {
		for _, nproc := range []int{4, 8, 64} {
			b.Run(fmt.Sprintf("alloc=%d/nproc=%d", alloc, nproc), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					rows := simjets.Fig09BGP([]int{alloc}, []int{nproc}, int64(i+1))
					util = rows[0].Utilization
				}
				b.ReportMetric(100*util, "util-%")
			})
		}
	}
}

func BenchmarkFig10Faulty(b *testing.B) {
	var meanRunning float64
	for i := 0; i < b.N; i++ {
		tr := simjets.Fig10Faulty(32, 10*time.Second, 5*time.Second, int64(i+1))
		// Mean running jobs over the decay window, the Fig. 10 health signal.
		meanRunning = tr.Running.Mean(330 * time.Second)
	}
	b.ReportMetric(meanRunning, "mean-running-jobs")
}

func BenchmarkFig11NAMDDistribution(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		h := simjets.Fig11Histogram(1536, int64(i+1))
		mean = h.Sum().Seconds() / float64(h.Count())
	}
	b.ReportMetric(mean, "mean-walltime-s")
}

func BenchmarkFig12NAMDUtilization(b *testing.B) {
	for _, alloc := range []int{256, 1024} {
		b.Run(fmt.Sprintf("alloc=%d", alloc), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				rows := simjets.Fig12NAMD([]int{alloc}, int64(i+1))
				util = rows[0].Utilization
			}
			b.ReportMetric(100*util, "util-%")
		})
	}
}

func BenchmarkFig13NAMDLoad(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = simjets.Fig13LoadLevel(int64(i + 1)).Max()
	}
	b.ReportMetric(peak, "peak-busy-procs")
}

func BenchmarkFig15SwiftSynthetic(b *testing.B) {
	for _, ppn := range []int{1, 8} {
		b.Run(fmt.Sprintf("alloc=16/npj=4/ppn=%d", ppn), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				rows := simjets.Fig15Swift([]int{16}, []int{4}, []int{ppn}, int64(i+1))
				util = rows[0].Utilization
			}
			b.ReportMetric(100*util, "util-%")
		})
	}
}

func BenchmarkFig18aREMSingle(b *testing.B) {
	for _, alloc := range []int{4, 64} {
		b.Run(fmt.Sprintf("alloc=%d", alloc), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				rows := simjets.Fig18REM([]int{alloc}, true, int64(i+1))
				util = rows[0].Utilization
			}
			b.ReportMetric(100*util, "util-%")
		})
	}
}

func BenchmarkFig18bREMMPI(b *testing.B) {
	for _, alloc := range []int{8, 64} {
		b.Run(fmt.Sprintf("alloc=%d", alloc), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				rows := simjets.Fig18REM([]int{alloc}, false, int64(i+1))
				util = rows[0].Utilization
			}
			b.ReportMetric(100*util, "util-%")
		})
	}
}

// ---------------------------------------------------------------------------
// Event-core throughput

// simEventsWorkload is the handler-form half of BenchmarkSimEvents: W workers
// cycle think -> station service -> think forever, sustaining a large
// outstanding event population. Handlers carry the worker index as the event
// arg, so the steady state allocates nothing.
type simEventsWorkload struct {
	s  *event.Sim
	st *event.Station
}

func (x *simEventsWorkload) thinkOf(w int) time.Duration {
	return time.Duration(100+w%1000) * time.Microsecond
}

// Fire is the think-expired handler: the worker requests station service.
func (x *simEventsWorkload) Fire(w int) {
	x.st.RequestCall(10*time.Microsecond, (*simEventsServed)(x), w)
}

// simEventsServed is the service-complete handler: the worker thinks again.
type simEventsServed simEventsWorkload

func (x *simEventsServed) Fire(w int) {
	x.s.AfterCall((*simEventsWorkload)(x).thinkOf(w), (*simEventsWorkload)(x), w)
}

// BenchmarkSimEvents measures raw simulator event throughput under a
// station-heavy churn workload with 32768 concurrent workers (a large live
// heap, the regime million-worker sweeps run in). heap=legacy is the frozen
// pre-optimization core (container/heap of pointers, closure callbacks);
// heap=flat is the current core driven through the allocation-free
// handler/arg API. events/s is the headline; the flat core must hold >=5x
// the legacy core (the BENCH_8 gate).
func BenchmarkSimEvents(b *testing.B) {
	const workers = 32768
	b.Run(fmt.Sprintf("heap=legacy/workers=%d", workers), func(b *testing.B) {
		s := legacy.New(1)
		st := legacy.NewStation(s, 64)
		var cycle func(w int)
		cycle = func(w int) {
			think := time.Duration(100+w%1000) * time.Microsecond
			s.After(think, func() {
				st.Request(10*time.Microsecond, func() { cycle(w) })
			})
		}
		for w := 0; w < workers; w++ {
			cycle(w)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if got := s.Run(uint64(b.N)); got != uint64(b.N) {
			b.Fatalf("ran %d events, want %d", got, b.N)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run(fmt.Sprintf("heap=flat/workers=%d", workers), func(b *testing.B) {
		s := event.New(1)
		wl := &simEventsWorkload{s: s, st: event.NewStation(s, 64)}
		for w := 0; w < workers; w++ {
			s.AfterCall(wl.thinkOf(w), wl, w)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if got := s.Run(uint64(b.N)); got != uint64(b.N) {
			b.Fatalf("ran %d events, want %d", got, b.N)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)

// BenchmarkAblationLocalStorage quantifies the paper's local-storage
// optimization: Fig. 15 conditions with the application binary on the
// shared filesystem versus cached in node-local RAM.
func BenchmarkAblationLocalStorage(b *testing.B) {
	run := func(b *testing.B, local bool) {
		var util float64
		for i := 0; i < b.N; i++ {
			util = simjets.Fig15LocalStorage(16, 4, 8, local, int64(i+1))
		}
		b.ReportMetric(100*util, "util-%")
	}
	b.Run("gpfs-binary", func(b *testing.B) { run(b, false) })
	b.Run("local-binary", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationMPIIO quantifies the §1.2/§7 MPI-IO argument: the number
// of filesystem clients for a 16-process job's output, direct (every rank
// writes) versus collective two-phase with one aggregator (N/16 clients).
func BenchmarkAblationMPIIO(b *testing.B) {
	const ranks, block = 16, 4096
	run := func(b *testing.B, naggs int, direct bool) {
		var accesses atomic64
		for i := 0; i < b.N; i++ {
			accesses.store(0)
			sink := &countingWriterAt{counter: &accesses}
			err := mpi.RunLocal(ranks, func(c *mpi.Comm) error {
				data := make([]byte, block)
				if direct {
					// Uncoordinated MTC-style I/O: every rank is a client.
					if _, err := sink.WriteAt(data, int64(c.Rank()*block)); err != nil {
						return err
					}
					return c.Barrier()
				}
				_, err := c.WriteAtAll(sink, int64(c.Rank()*block), data, naggs)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(accesses.load()), "fs-accesses")
	}
	b.Run("direct-16clients", func(b *testing.B) { run(b, 0, true) })
	b.Run("collective-1agg", func(b *testing.B) { run(b, 1, false) })
	b.Run("collective-4agg", func(b *testing.B) { run(b, 4, false) })
}

type atomic64 struct{ v atomic.Int64 }

func (a *atomic64) add()          { a.v.Add(1) }
func (a *atomic64) store(x int64) { a.v.Store(x) }
func (a *atomic64) load() int64   { return a.v.Load() }

type countingWriterAt struct{ counter *atomic64 }

func (w *countingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	w.counter.add()
	return len(p), nil
}

// ---------------------------------------------------------------------------
// Real-runtime microbenchmarks

// BenchmarkIdealLaunchRate measures raw in-process task launch (the §6.1.1
// "ideal" point analogue): proxy execution with no dispatcher.
func BenchmarkIdealLaunchRate(b *testing.B) {
	runner := hydra.NewFuncRunner()
	runner.Register("noop", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	task := proto.Task{TaskID: "t", JobID: "j", Cmd: "noop"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := hydra.RunProxy(context.Background(), &task, runner, io.Discard)
		if res.ExitCode != 0 {
			b.Fatal("task failed")
		}
	}
}

// BenchmarkDispatchThroughput measures the real dispatcher's sequential task
// rate with in-process workers (each on an in-memory pipe), reporting jobs/s, with
// write coalescing on. The shards variants isolate the scheduling-state
// sharding: one global lock (shards=1) against the sharded+stealing
// scheduler (shards=4; the 8 workers' coordinate planes spread two per
// shard).
func BenchmarkDispatchThroughput(b *testing.B) {
	run := func(b *testing.B, coalesce, shards int) {
		runner := hydra.NewFuncRunner()
		workload.RegisterApps(runner)
		eng, err := core.NewEngine(core.Options{
			LocalWorkers: 8, Runner: runner,
			WriteCoalesce: coalesce, Shards: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ResetTimer()
		handles := make([]*dispatch.Handle, 0, b.N)
		for i := 0; i < b.N; i++ {
			h, err := eng.Submit(dispatch.Job{
				Spec: hydra.JobSpec{JobID: fmt.Sprintf("n%d", i), NProcs: 1, Cmd: workload.NoopApp},
				Type: dispatch.Sequential,
			})
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if res := h.Wait(); res.Failed {
				b.Fatal("job failed")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	}
	b.Run("binary-coalesced", func(b *testing.B) { run(b, 16, 0) })
	b.Run("shards=1", func(b *testing.B) { run(b, 16, 1) })
	b.Run("shards=4", func(b *testing.B) { run(b, 16, 4) })
}

// BenchmarkDispatchThroughputJournaled is the binary-coalesced configuration
// with the crash-safe journal enabled, isolating the durability overhead:
// every submit/dispatch/complete appends a WAL record and group-commit fsyncs
// batch them on a 2ms cadence, so the cost amortizes across in-flight jobs
// rather than serializing on the disk.
func BenchmarkDispatchThroughputJournaled(b *testing.B) {
	runner := hydra.NewFuncRunner()
	workload.RegisterApps(runner)
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: 8, Runner: runner,
		WriteCoalesce: 16,
		DataDir:       b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	handles := make([]*dispatch.Handle, 0, b.N)
	for i := 0; i < b.N; i++ {
		h, err := eng.Submit(dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: workload.NoopApp},
			Type: dispatch.Sequential,
		})
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			b.Fatal("job failed")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkDispatchThroughputSpilled is the journaled configuration with a
// deliberately tiny hot queue window, so the submitted backlog spills to the
// on-disk store and every job is rehydrated through the read-ahead refill
// path before it dispatches. It prices the full spill round trip (encode,
// segment write, pread, decode) on top of the WAL, the worst case for the
// disk-backed cold queue.
func BenchmarkDispatchThroughputSpilled(b *testing.B) {
	runner := hydra.NewFuncRunner()
	workload.RegisterApps(runner)
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: 8, Runner: runner,
		WriteCoalesce: 16,
		DataDir:       b.TempDir(),
		HotQueueJobs:  64,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	handles := make([]*dispatch.Handle, 0, b.N)
	for i := 0; i < b.N; i++ {
		h, err := eng.Submit(dispatch.Job{
			Spec: hydra.JobSpec{JobID: fmt.Sprintf("s%d", i), NProcs: 1, Cmd: workload.NoopApp},
			Type: dispatch.Sequential,
		})
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := h.Wait(); res.Failed {
			b.Fatal("job failed")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(eng.Dispatcher().Stats().JobsSpilled)/float64(b.N), "spilled/job")
}

// BenchmarkMPIJobLaunch measures the full MPI job cycle through the real
// stack: mpiexec start, proxy dispatch, PMI wire-up, barrier, teardown.
// pmi-conns/job is the TCP connections the control plane accepts per job: the
// ranks run in the PMI endpoint's own process and reach it through pipes,
// kept between jobs like a socket, so it is 0 (a forked rank would dial
// once per job). mpi-sessions/job is what
// the ranks open among themselves: one session per edge of the barrier's
// tree, nproc-1 exactly. mpi-conns/job is the rank-pair links those sessions
// dialed: the ranks of one process keep their links between jobs, so it too
// tends to 0.
func BenchmarkMPIJobLaunch(b *testing.B) {
	reg := obs.NewRegistry()
	hydra.RegisterMetrics(reg)
	accepted := reg.Lookup("jets_pmi_connections_accepted_total").(*obs.Counter)
	dialed := reg.Lookup("jets_mpi_connections_dialed_total").(*obs.Counter)
	sessions := reg.Lookup("jets_mpi_sessions_total").(*obs.Counter)
	for _, nproc := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nproc=%d", nproc), func(b *testing.B) {
			runner := hydra.NewFuncRunner()
			workload.RegisterApps(runner)
			eng, err := core.NewEngine(core.Options{LocalWorkers: nproc, Runner: runner})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			before, dialedBefore, sessionsBefore := accepted.Value(), dialed.Value(), sessions.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := eng.Submit(dispatch.Job{
					Spec: hydra.JobSpec{JobID: fmt.Sprintf("m%d", i), NProcs: nproc,
						Cmd: workload.BarrierApp, Args: []string{"0"}},
					Type: dispatch.MPI,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res := h.Wait(); res.Failed {
					b.Fatalf("job failed: %+v", res)
				}
			}
			b.ReportMetric(float64(accepted.Value()-before)/float64(b.N), "pmi-conns/job")
			b.ReportMetric(float64(dialed.Value()-dialedBefore)/float64(b.N), "mpi-conns/job")
			b.ReportMetric(float64(sessions.Value()-sessionsBefore)/float64(b.N), "mpi-sessions/job")
		})
	}
}

// BenchmarkMPICollectives measures barrier and allreduce over the channel
// transport, warm, and a whole 8-rank TCP barrier job (registration at the
// process's endpoint, PMI fence, the tree's seven sessions on kept links, one
// barrier, teardown) per iteration.
func BenchmarkMPICollectives(b *testing.B) {
	b.Run("barrier-8-tcp-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mpi.RunTCP(8, func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("barrier-8", func(b *testing.B) {
		if err := mpi.RunLocal(8, func(c *mpi.Comm) error {
			for i := 0; i < b.N; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("allreduce-8x16", func(b *testing.B) {
		in := make([]float64, 16)
		if err := mpi.RunLocal(8, func(c *mpi.Comm) error {
			for i := 0; i < b.N; i++ {
				if _, err := c.AllreduceFloat64(mpi.OpSum, in); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkPMIWireUp measures the PMI side of an 8-rank job's MPI_Init and
// exit (one fenced bootstrap per rank, get all, finalize) against the two
// kinds of endpoint: a listener of the job's own, dialed by every rank and
// closed with the job, and the shared endpoint, where a job is a registry
// entry and its ranks, in the endpoint's process, run on pipes kept from the
// job before.
func BenchmarkPMIWireUp(b *testing.B) {
	const ranks = 8
	wireUp := func(b *testing.B, addr, kvs string) {
		errs := make(chan error, ranks)
		for rank := 0; rank < ranks; rank++ {
			go func(rank int) {
				c, err := pmi.DialFence(addr, kvs, rank, fmt.Sprintf("addr-%d", rank), fmt.Sprintf("h%d", rank))
				if err != nil {
					errs <- err
					return
				}
				for p := 0; p < ranks; p++ {
					if _, err := c.Get(fmt.Sprintf("addr-%d", p)); err != nil {
						errs <- err
						return
					}
				}
				errs <- c.Finalize()
			}(rank)
		}
		for rank := 0; rank < ranks; rank++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-job-listener", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			srv, err := pmi.NewServer(fmt.Sprintf("kvs%d", i), ranks)
			if err != nil {
				b.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			wireUp(b, addr, "")
			srv.Close()
		}
	})
	b.Run("shared-endpoint", func(b *testing.B) {
		svc, err := pmi.NewService("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		for i := 0; i < b.N; i++ {
			kvs := fmt.Sprintf("kvs%d", i)
			srv, err := pmi.NewServer(kvs, ranks)
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Attach(srv); err != nil {
				b.Fatal(err)
			}
			wireUp(b, svc.Addr(), kvs)
			srv.Close()
		}
	})
}

// BenchmarkProtoCodec measures wire-protocol framing cost — one Send plus
// one Recv through an in-memory stream, i.e. pure encode+frame+decode with
// no socket or goroutine handoff — per hot frame kind, in ns/msg and
// allocs/op. The "/binary" suffix keeps the names the BENCH_n snapshots
// recorded while a JSON variant ran beside it.
func BenchmarkProtoCodec(b *testing.B) {
	task := &proto.Envelope{Kind: proto.KindTask, Task: &proto.Task{
		TaskID: "job174/rank3", JobID: "job174", Cmd: "namd2.sh",
		Args: []string{"input-174.pdb", "output-174.log"},
		Env:  []string{"PMI_RANK=3", "JETS_CACHE=/dev/shm/jets"},
		Rank: 3, Size: 8, Control: "10.0.0.7:51123", KVS: "kvs_job174_1",
	}}
	result := &proto.Envelope{Kind: proto.KindResult, Result: &proto.Result{
		TaskID: "job174/rank3", JobID: "job174", Elapsed: 93 * time.Millisecond,
	}}
	output := &proto.Envelope{Kind: proto.KindOutput, Output: &proto.Output{
		TaskID: "job174/rank3", Stream: "stdout", Data: make([]byte, 512),
	}}
	heartbeat := &proto.Envelope{Kind: proto.KindHeartbeat}
	stage := &proto.Envelope{Kind: proto.KindStage, Stage: &proto.Stage{
		Name: "namd2.sh", Data: make([]byte, 64<<10),
	}}
	for _, msg := range []struct {
		name string
		env  *proto.Envelope
	}{
		{"task", task}, {"result", result}, {"output-512B", output}, {"heartbeat", heartbeat},
		{"stage-64KB", stage},
	} {
		b.Run(msg.name+"/binary", func(b *testing.B) {
			var buf bytes.Buffer
			c := proto.NewCodec(&buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg.env); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
		})
	}
}

// nullAsyncExecutor counts invocations and completes them immediately, so
// BenchmarkSwiftGenerate isolates the script layer: parse-once task
// production with zero dispatch or execution cost.
type nullAsyncExecutor struct{ n atomic.Int64 }

func (x *nullAsyncExecutor) Execute(ctx context.Context, inv swiftlang.AppInvocation) error {
	x.n.Add(1)
	return nil
}

func (x *nullAsyncExecutor) ExecuteAsync(ctx context.Context, inv swiftlang.AppInvocation, done func(error)) {
	x.n.Add(1)
	done(nil)
}

// chainScript is the dependent two-stage chain of the swift-script workload:
// every cooked[i] reads raw[i], which is unset when the walk reaches it, so
// half of the statements suspend.
const chainScript = `
int n = toInt(arg("n", "4"));
app (file o) mkinput (int i) { "mkinput" i @o; }
app (file o) process (file a, int i) { "process" @a i @o; }
file raw[] <"raw_%d.file">;
file cooked[] <"cooked_%d.file">;
foreach i in [0:n-1] {
    raw[i] = mkinput(i);
    cooked[i] = process(raw[i], i * 2);
}
`

// laterExecutor completes every invocation from one goroutine of its own,
// after ExecuteAsync has returned — the way the dispatcher does — and samples
// the process while it does: peak goroutines and in-flight foreach iterations
// at every completion, and every heapSampleEvery completions the live heap.
type laterExecutor struct {
	n        atomic.Int64
	inflight *obs.Gauge // swift_foreach_iterations_inflight
	queue    chan func(error)

	peakGoroutines int
	peakInflight   int64
	peakHeap       uint64
}

const heapSampleEvery = 8192

func (x *laterExecutor) Execute(ctx context.Context, inv swiftlang.AppInvocation) error {
	x.n.Add(1)
	return nil
}

func (x *laterExecutor) ExecuteAsync(ctx context.Context, inv swiftlang.AppInvocation, done func(error)) {
	x.n.Add(1)
	x.queue <- done
}

// complete runs until the queue is closed. Heap samples are taken with the
// script layer at rest — the completer holds its next completion until the
// queue has stopped growing, which is the walk out of credits and the runner
// out of ready statements — so they read the window's live set, not how much
// the walker happened to allocate while the collector ran. The first sample
// sees the first full window, whatever n is.
func (x *laterExecutor) complete() {
	var ms runtime.MemStats
	for i := 0; ; i++ {
		done, ok := <-x.queue
		if !ok {
			return
		}
		if i%heapSampleEvery == 0 {
			for prev := -1; ; time.Sleep(time.Millisecond) {
				l := len(x.queue)
				if l == prev {
					break
				}
				prev = l
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			x.peakHeap = max(x.peakHeap, ms.HeapAlloc)
		}
		if g := runtime.NumGoroutine(); g > x.peakGoroutines {
			x.peakGoroutines = g
		}
		if v := x.inflight.Value(); v > x.peakInflight {
			x.peakInflight = v
		}
		done(nil)
	}
}

// BenchmarkSwiftChain is the script layer's scale axis: the same suspending
// program at two sizes. tasks/s and B/task should be flat in n, peak
// goroutines a constant — a statement waiting for data is a record, not a
// goroutine — and so should peak-inflight-iterations and the sampled
// peak-heap-MB: the loop is windowable, so the walk holds a window of
// iterations (8 default batches here), not n. The 100k run fails if its peak
// heap is more than 1.5x the 10k run's.
func BenchmarkSwiftChain(b *testing.B) {
	prog, err := swiftlang.Parse(chainScript)
	if err != nil {
		b.Fatal(err)
	}
	compiled := swiftlang.Compile(prog)
	reg := obs.NewRegistry()
	swiftlang.RegisterMetrics(reg)
	inflight := reg.Lookup("swift_foreach_iterations_inflight").(*obs.Gauge)
	peakHeap := map[int]uint64{}
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			args := map[string]string{"n": fmt.Sprint(n)}
			wd := b.TempDir()
			tasks := int64(2 * n)
			var peak laterExecutor
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The completer runs behind the walk, so every stage-2
				// statement of a walked iteration has to suspend. The window
				// keeps outstanding invocations well under the queue's
				// capacity, which therefore need not grow with n.
				ex := &laterExecutor{queue: make(chan func(error), 1<<13), inflight: inflight}
				finished := make(chan struct{})
				go func() {
					defer close(finished)
					ex.complete()
				}()
				err := compiled.Run(context.Background(), swiftlang.Config{Executor: ex, WorkDir: wd, Args: args})
				close(ex.queue)
				<-finished
				if err != nil {
					b.Fatal(err)
				}
				if got := ex.n.Load(); got != tasks {
					b.Fatalf("ran %d tasks, want %d", got, tasks)
				}
				peak.peakGoroutines = max(peak.peakGoroutines, ex.peakGoroutines)
				peak.peakInflight = max(peak.peakInflight, ex.peakInflight)
				peak.peakHeap = max(peak.peakHeap, ex.peakHeap)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(tasks) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "tasks/s")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/task")
			b.ReportMetric(float64(peak.peakGoroutines), "peak-goroutines")
			b.ReportMetric(float64(peak.peakInflight), "peak-inflight-iterations")
			b.ReportMetric(float64(peak.peakHeap)/1e6, "peak-heap-MB")
			peakHeap[n] = peak.peakHeap
		})
	}
	if small, big := peakHeap[10000], peakHeap[100000]; small > 0 && big > small+small/2 {
		b.Errorf("peak heap %.1f MB at n=100000 is more than 1.5x the %.1f MB at n=10000",
			float64(big)/1e6, float64(small)/1e6)
	}
}

// BenchmarkSwiftGenerate measures script-side task throughput of the 100k
// generator script (testdata/gen.swift) under the tree-walking interpreter
// and the static-dataflow compiler. The compiled mode's tasks/s is the
// headline: it must hold >=5x the interpreter (the BENCH_6 gate).
func BenchmarkSwiftGenerate(b *testing.B) {
	src, err := os.ReadFile("internal/swiftlang/testdata/gen.swift")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := swiftlang.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	const tasks = 100000
	for _, mode := range []struct {
		name string
		run  func(context.Context, *swiftlang.Program, swiftlang.Config) error
	}{{"interp", swiftlang.Interpret}, {"compiled", swiftlang.Run}} {
		b.Run(fmt.Sprintf("%s/tasks=%d", mode.name, tasks), func(b *testing.B) {
			args := map[string]string{"n": fmt.Sprint(tasks)}
			wd := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := &nullAsyncExecutor{}
				err := mode.run(context.Background(), prog, swiftlang.Config{
					Executor: ex, WorkDir: wd, Args: args,
				})
				if err != nil {
					b.Fatal(err)
				}
				if got := ex.n.Load(); got != tasks {
					b.Fatalf("generated %d tasks, want %d", got, tasks)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}
