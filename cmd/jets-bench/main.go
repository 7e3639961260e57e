// Command jets-bench regenerates every table and figure of the paper's
// evaluation (§6) and prints the series in paper order. Experiments at
// Blue Gene/P scale run on the discrete-event simulator in virtual time;
// the MPI messaging comparison (Fig. 8) and the dispatcher microbenchmarks
// run the real implementation.
//
// Usage:
//
//	jets-bench                        # all figures
//	jets-bench -figure 9              # one figure
//	jets-bench -scenario list         # named scenario sweeps
//	jets-bench -scenario sweep-10k
//	jets-bench -replay trace.jsonl    # re-execute a live dispatcher trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"jets/internal/mpi"
	"jets/internal/simjets"
	"jets/internal/simjets/scenario"
)

func main() {
	figure := flag.Int("figure", 0, "figure number to run (0 = all)")
	seed := flag.Int64("seed", 1, "simulation seed")
	scen := flag.String("scenario", "", "run a named scenario from the library ('list' to enumerate)")
	replay := flag.String("replay", "", "replay a dispatcher -trace JSON-lines file in the simulator")
	flag.Parse()

	if *scen != "" {
		runScenario(*scen, *seed)
		return
	}
	if *replay != "" {
		runReplay(*replay, *seed)
		return
	}

	figs := map[int]func(int64){
		6: fig06, 7: fig07, 8: fig08, 9: fig09, 10: fig10,
		11: fig11, 12: fig12, 13: fig13, 15: fig15, 18: fig18,
	}
	if *figure != 0 {
		fn, ok := figs[*figure]
		if !ok {
			fmt.Fprintf(os.Stderr, "jets-bench: no experiment for figure %d\n", *figure)
			os.Exit(1)
		}
		fn(*seed)
		return
	}
	for _, n := range []int{6, 7, 8, 9, 10, 11, 12, 13, 15, 18} {
		figs[n](*seed)
	}
}

func header(s string) { fmt.Printf("\n=== %s ===\n", s) }

// runScenario executes one library scenario and prints its Result as JSON
// (deterministic for a given seed) plus the wall clock on stderr.
func runScenario(name string, seed int64) {
	if name == "list" {
		fmt.Printf("%-16s %10s %10s %8s %s\n", "name", "workers", "duration", "tenants", "storms")
		for _, sc := range scenario.Library() {
			wpn := sc.WorkersPerNode
			if wpn < 1 {
				wpn = 1
			}
			fmt.Printf("%-16s %10d %10s %8d %d\n", sc.Name, sc.Nodes*wpn, sc.Duration, len(sc.Tenants), len(sc.Storms))
		}
		return
	}
	sc, ok := scenario.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "jets-bench: unknown scenario %q (try -scenario list)\n", name)
		os.Exit(1)
	}
	res := scenario.Run(sc, seed)
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "jets-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	fmt.Fprintf(os.Stderr, "wall clock: %s (%.2fM events/s)\n",
		res.Wall.Round(time.Millisecond), float64(res.Events)/res.Wall.Seconds()/1e6)
}

// runReplay parses a recorded dispatcher trace and re-executes it in the
// simulator, printing the calibration report.
func runReplay(path string, seed int64) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jets-bench:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := simjets.ReplayTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jets-bench:", err)
		os.Exit(1)
	}
	rep := tr.Run(seed)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "jets-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func fig06(seed int64) {
	header("Fig 6 — JETS sequential task rate, BG/P (sim)")
	fmt.Printf("%8s %8s %12s\n", "nodes", "cores", "jobs/s")
	for _, r := range simjets.Fig06SequentialRate([]int{16, 32, 64, 128, 256, 512, 1024}, 20, seed) {
		fmt.Printf("%8d %8d %12.0f\n", r.Nodes, r.Cores, r.JobsPerSec)
	}
	fmt.Printf("ideal (1 node, no JETS): %.0f launches/s/node\n", simjets.Fig06Ideal())
}

func fig07(seed int64) {
	header("Fig 7 — MPI task launch, cluster setting, 1 s tasks (sim)")
	fmt.Printf("%8s %-14s %12s\n", "alloc", "mode", "utilization")
	for _, r := range simjets.Fig07Cluster([]int{4, 8, 16, 32, 64}, seed) {
		fmt.Printf("%8d %-14s %11.1f%%\n", r.Alloc, r.Mode, 100*r.Utilization)
	}
}

func fig08(seed int64) {
	header("Fig 8 — MPI ping-pong: native (channel) vs MPICH/sockets (TCP), real measurement")
	fmt.Printf("%10s %16s %16s %8s\n", "bytes", "native t/msg", "sockets t/msg", "ratio")
	sizes := []int{1, 64, 1024, 16 << 10, 256 << 10, 4 << 20}
	for _, size := range sizes {
		nat := pingpong(size, false)
		soc := pingpong(size, true)
		fmt.Printf("%10d %16s %16s %7.1fx\n", size, nat, soc, float64(soc)/float64(nat))
	}
	_ = seed
}

// pingpong measures one-way message time for the given payload size over
// the chosen transport, averaging over a fixed round count.
func pingpong(size int, tcp bool) time.Duration {
	rounds := 2000
	if size >= 256<<10 {
		rounds = 100
	}
	payload := make([]byte, size)
	var elapsed time.Duration
	body := func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
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
			elapsed = time.Since(start)
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
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(1)
	}
	return elapsed / time.Duration(2*rounds)
}

func fig09(seed int64) {
	header("Fig 9 — MPI task launch, BG/P, 10 s tasks, 1 proc/node (sim)")
	fmt.Printf("%8s %-10s %12s\n", "alloc", "task size", "utilization")
	for _, r := range simjets.Fig09BGP([]int{256, 512, 1024}, []int{4, 8, 64}, seed) {
		fmt.Printf("%8d %-10s %11.1f%%\n", r.Alloc, r.Mode, 100*r.Utilization)
	}
}

func fig10(seed int64) {
	header("Fig 10 — faulty setting: 32 workers, kill 1 per 10 s (sim)")
	tr := simjets.Fig10Faulty(32, 10*time.Second, 5*time.Second, seed)
	fmt.Printf("%8s %16s %14s\n", "t (s)", "nodes available", "running jobs")
	for t := 0 * time.Second; t <= 330*time.Second; t += 20 * time.Second {
		fmt.Printf("%8.0f %16.0f %14.0f\n", t.Seconds(), tr.Alive.At(t), tr.Running.At(t))
	}
	fmt.Printf("kills injected: %d\n", len(tr.KillTimes))
}

func fig11(seed int64) {
	header("Fig 11 — NAMD wall-time distribution, 1,536 4-proc jobs")
	h := simjets.Fig11Histogram(1536, seed)
	bounds, counts := simjets.Fig11Bounds(), h.Buckets(nil)
	for i := 1; i < len(bounds); i++ {
		fmt.Printf("%8.1f..%-8.1f %d\n", bounds[i-1].Seconds(), bounds[i].Seconds(), counts[i])
	}
	fmt.Printf("n=%d mean=%.1fs\n", h.Count(), h.Sum().Seconds()/float64(h.Count()))
}

func fig12(seed int64) {
	header("Fig 12 — NAMD/JETS utilization, BG/P (sim)")
	fmt.Printf("%8s %12s\n", "alloc", "utilization")
	for _, r := range simjets.Fig12NAMD([]int{256, 512, 1024}, seed) {
		fmt.Printf("%8d %11.1f%%\n", r.Alloc, 100*r.Utilization)
	}
}

func fig13(seed int64) {
	header("Fig 13 — NAMD/JETS load level, full rack (sim)")
	s := simjets.Fig13LoadLevel(seed)
	span := s.T[len(s.T)-1]
	fmt.Printf("%8s %12s\n", "t (s)", "busy procs")
	step := span / 16
	if step <= 0 {
		step = time.Second
	}
	for t := time.Duration(0); t <= span; t += step {
		fmt.Printf("%8.0f %12.0f\n", t.Seconds(), s.At(t))
	}
	fmt.Printf("peak=%0.f procs, span=%.0fs\n", s.Max(), span.Seconds())
}

func fig15(seed int64) {
	header("Fig 15 — Swift/Coasters synthetic workloads, Eureka, 10 s tasks (sim)")
	fmt.Printf("%8s %10s %6s %12s\n", "alloc", "nodes/job", "ppn", "utilization")
	for _, r := range simjets.Fig15Swift([]int{16, 32, 64}, []int{1, 2, 4, 8}, []int{1, 2, 4, 8}, seed) {
		fmt.Printf("%8d %10d %6d %11.1f%%\n", r.Alloc, r.NodesPerJob, r.PPN, 100*r.Utilization)
	}
}

func fig18(seed int64) {
	header("Fig 18a — REM/Swift, single-process NAMD (sim)")
	fmt.Printf("%8s %12s\n", "alloc", "utilization")
	for _, r := range simjets.Fig18REM([]int{4, 8, 16, 32, 64}, true, seed) {
		fmt.Printf("%8d %11.1f%%\n", r.Alloc, 100*r.Utilization)
	}
	header("Fig 18b — REM/Swift, MPI NAMD, PPN 8 (sim)")
	fmt.Printf("%8s %12s\n", "alloc", "utilization")
	for _, r := range simjets.Fig18REM([]int{8, 16, 32, 64}, false, seed) {
		fmt.Printf("%8d %11.1f%%\n", r.Alloc, 100*r.Utilization)
	}
}
