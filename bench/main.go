// Command bench is the repository's benchmark: five named workloads driven
// through the JETS stack from outside (public hooks and the shipped
// binaries only), end-to-end metrics from untraced runs and a per-layer
// budget from a separate traced run. README.md has the definitions.
//
// It runs from this directory (bash bench/run.sh ..., or go run -C bench .):
//
//	bench -seed 7 -out results.json            every workload, untraced
//	bench -seed 7 -trace 1 -out layers.json    every workload, traced pass
//	bench -workload mpi-gang -seed 7 -seconds 15 -trace 0
//	bench -compare a.json b.json
//	bench -smoke                               tiny sizes, a few seconds
//
// With -workload the last line of standard output is the one-object JSON
// result the benchmark driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string

	root, build, bin string
	cat              *catalog
}

const (
	rounds = 5 // a run reports the median of this many fresh-process rounds
	// Set-up-only repeats after each round: at least setupRepeatsMin, then
	// more until setupRepeatFor has been spent (cheap set-ups need more
	// samples for a steady median), never more than setupRepeatsMax.
	setupRepeatsMin = 2
	setupRepeatsMax = 30
	setupRepeatFor  = 150 * time.Millisecond
	tracedDivisor   = 5 // a traced round is this much smaller than a timed one
	busyLoadavg     = 1.5
	childTimeout    = 170 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var cfg config
	flag := flag.NewFlagSet("bench", flag.ContinueOnError)
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload and print the driver's one-line JSON result")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measured time per run; work per round scales with it (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 does the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes and one round: checks the harness, measures nothing")
	flag.StringVar(&cfg.out, "out", "", "write the results (environment, medians, raw rounds) to this JSON file")
	compare := flag.Bool("compare", false, "compare two results files given as arguments; exit 1 if any metric is worse")
	if err := flag.Parse(args); err != nil {
		return err
	}

	root, err := filepath.Abs("..")
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return fmt.Errorf("run from the bench directory of a checkout (bash bench/run.sh, or go run -C bench .): %w", err)
	}
	cfg.root, cfg.build = root, filepath.Join(root, ".bench_build")
	cfg.bin = filepath.Join(cfg.build, "bin")
	if cfg.cat, err = loadCatalog(root); err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		if compareResults(os.Stdout, cfg.cat, a, b) {
			return errors.New("at least one metric is worse than its bound allows")
		}
		return nil
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(cfg.cat.RunSeconds)
	}

	var names []string
	for _, w := range cfg.cat.Workloads {
		if cfg.workload == "" || cfg.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	buildSeconds, err := buildTools(cfg, names)
	if err != nil {
		return err
	}

	file := resultsFile{Env: recordEnv(root), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace == 1,
		Workloads: map[string]*runResult{}}
	allCorrect := true
	for _, name := range names {
		var r *runResult
		if cfg.trace == 1 {
			r, err = runTraced(cfg, name, buildSeconds)
		} else {
			r, err = runTimed(cfg, name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		file.Workloads[name] = r
		allCorrect = allCorrect && r.Correct
		printRun(os.Stdout, name, r)
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cfg.workload != "" {
		return printDriverLine(file.Workloads[cfg.workload])
	}
	if !allCorrect {
		return errors.New("output checks failed (see PROBLEM lines)")
	}
	return nil
}

// printDriverLine prints the result object the benchmark driver reads from
// the last line of standard output.
func printDriverLine(r *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// buildTools builds the shipped binaries the named workloads run, from the
// checkout's source, into .bench_build/bin, and returns the time it took
// (layer metric bench.build_s; never part of setup_s).
func buildTools(cfg config, names []string) (float64, error) {
	need := map[string]bool{}
	for _, n := range names {
		need[n] = true
	}
	type target struct{ dir, out, pkg string }
	var targets []target
	if need[wPilotExec] {
		targets = append(targets,
			target{cfg.root, cfg.bin + "/", "./cmd/jets"},
			target{cfg.root, cfg.bin + "/", "./cmd/jets-worker"},
			target{".", filepath.Join(cfg.bin, "barrier"), "./cmd/barrier"})
	}
	if need[wSwiftScript] {
		targets = append(targets, target{cfg.root, cfg.bin + "/", "./cmd/swiftrun"})
	}
	start := time.Now()
	if err := os.MkdirAll(cfg.bin, 0o755); err != nil {
		return 0, err
	}
	for _, t := range targets {
		cmd := exec.Command("go", "build", "-o", t.out, t.pkg)
		cmd.Dir = t.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("go build %s: %w\n%s", t.pkg, err, out)
		}
	}
	return time.Since(start).Seconds(), nil
}

// childArgs are the arguments of one child process: one round, or one probe
// pass. A fresh process per round keeps heap ageing out of the comparison.
type childArgs struct {
	Kind      string // "round" or "probes"
	Workload  string
	Seed      int64
	Seconds   float64
	Smoke     bool
	Divisor   int  // > 1: a traced-size round
	Traced    bool // instrument the engine and emit per-layer metrics
	Twin      bool // pilot-exec's in-process twin instead of the real binaries
	SetupReps bool // sample set-up again after the round (see setupRepeatFor)
	Dir, Bin  string
	TraceOut  string
}

// spawn runs one child and decodes the round result from the last line of
// its standard output.
func spawn(a childArgs) (*roundResult, error) {
	if err := os.RemoveAll(a.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(a.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(a.Dir)
	enc, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(enc))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(childTimeout, func() { cmd.Process.Kill() })
	err = cmd.Wait()
	timer.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", a.Kind, a.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res roundResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s child of %s: bad result line: %w", a.Kind, a.Workload, err)
	}
	return &res, nil
}

func childMain(args []string) int {
	var a childArgs
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &a) != nil {
		fmt.Fprintln(os.Stderr, "bench: -child takes one JSON argument (internal)")
		return 2
	}
	res, err := child(a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", a.Workload, a.Kind, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

func child(a childArgs) (*roundResult, error) {
	sz := sizesFor(a.Seconds, a.Smoke)
	if a.Kind == "probes" {
		budget := time.Duration(a.Seconds / 15 * float64(time.Second))
		if a.Smoke {
			budget = 20 * time.Millisecond
		}
		res := &roundResult{Metrics: map[string]float64{}, Attempted: 1}
		env := probeEnv{budget: budget, dir: a.Dir, seed: a.Seed, sz: sz, bin: a.Bin}
		for _, p := range probesFor[a.Workload] {
			if err := p(env, res.Metrics); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	if a.Divisor > 1 {
		sz = sz.scaled(a.Divisor)
	}
	subdir := func(name string) (string, error) {
		d := filepath.Join(a.Dir, name)
		return d, os.MkdirAll(d, 0o755)
	}
	dir, err := subdir("round")
	if err != nil {
		return nil, err
	}
	// The real-binary workloads run their tool, unless the traced pass asks
	// for pilot-exec's in-process twin.
	var tool func(bin string, seed int64, sz sizes, dir string, setupOnly bool) (*roundResult, error)
	switch {
	case a.Twin:
	case a.Workload == wPilotExec:
		tool = runPilotExec
	case a.Workload == wSwiftScript:
		tool = runSwiftScript
	}
	var res *roundResult
	if tool != nil {
		res, err = tool(a.Bin, a.Seed, sz, dir, false)
	} else {
		var tr *tracer
		if a.Traced {
			tr = &tracer{out: a.TraceOut}
		}
		res, err = runInproc(a.Workload, a.Seed, sz, dir, filepath.Join(a.Bin, "barrier"), tr)
	}
	if err != nil {
		return nil, err
	}
	maxReps := setupRepeatsMax
	switch {
	case !a.SetupReps:
		maxReps = 0
	case a.Smoke:
		maxReps = 1
	}
	spent := time.Duration(0)
	for i := 0; i < maxReps && (i < setupRepeatsMin || spent < setupRepeatFor); i++ {
		repStart := time.Now()
		dir, err := subdir(fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		var s float64
		if tool != nil {
			r, err := tool(a.Bin, a.Seed, sz, dir, true)
			if err != nil {
				return nil, err
			}
			s = r.Setups[0]
		} else {
			d, err := setupOnlyInproc(a.Workload, a.Seed, sz, dir)
			if err != nil {
				return nil, err
			}
			s = d.Seconds()
		}
		res.Setups = append(res.Setups, s)
		spent += time.Since(repStart)
	}
	return res, nil
}

// sampleSpeed times the reference kernels. The smoke path measures nothing
// and skips the second that takes; a zero sample has index 1.
func (cfg config) sampleSpeed() speedSample {
	if cfg.smoke {
		return speedSample{}
	}
	return sampleSpeed()
}

func (cfg config) childArgs(name, kind string) childArgs {
	return childArgs{Kind: kind, Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Dir: filepath.Join(cfg.build, "work", name), Bin: cfg.bin}
}

// runTimed is one untraced run: `rounds` fresh-process rounds, each metric
// reported as the median round, set-up time as the median of every sample.
func runTimed(cfg config, name string) (*runResult, error) {
	r := &runResult{Correct: true, Metrics: map[string]metricValue{}}
	nRounds := rounds
	if cfg.smoke {
		nRounds = 1
	}
	perRound := map[string][]float64{}
	exact := map[string][]float64{}
	var speeds []speedSample
	for i := 0; i < nRounds; i++ {
		load, speed := loadavg1(), cfg.sampleSpeed()
		speeds = append(speeds, speed)
		r.Rounds = append(r.Rounds, roundInfo{Loadavg1: load, Flagged: load > busyLoadavg, Speed: speed})
		a := cfg.childArgs(name, "round")
		a.SetupReps = true
		res, err := spawn(a)
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = median(res.Setups)
		for k, v := range res.Metrics {
			perRound[k] = append(perRound[k], v)
		}
		for k, v := range res.Exact {
			exact[k] = append(exact[k], v)
		}
		r.Attempted += res.Attempted
		r.Failed += res.Failed
		r.LatencySamples, r.TailPct = res.LatencySamples, res.TailPct
		for _, p := range res.Problems {
			r.Problems = append(r.Problems, fmt.Sprintf("round %d: %s", i, p))
		}
	}
	r.SpeedAfter = cfg.sampleSpeed()
	r.SpeedIndex = speedIndex(append(speeds, r.SpeedAfter))
	for k, vs := range exact {
		for _, v := range vs {
			if v != vs[0] {
				r.Problems = append(r.Problems, fmt.Sprintf("%s is an exact count but differs across rounds: %v", k, vs))
				break
			}
		}
	}
	for _, def := range cfg.cat.EndToEnd {
		vs, ok := perRound[def.Name]
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", def.Name)
		}
		mv := metricValue{Unit: def.Unit, RawMedian: median(vs)}
		for _, v := range vs {
			mv.Rounds = append(mv.Rounds, atReferenceSpeed(v, def.Unit, r.SpeedIndex))
		}
		mv.Median = median(mv.Rounds)
		r.Metrics[def.Name] = mv
	}
	r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return r, nil
}

// runTraced is the traced pass of one workload: an untraced and a traced
// round at one fifth of the timed size (their difference is the tracing
// overhead), then the workload's isolated probes. Every per-layer metric of
// BENCHMARK.json is reported; one this workload has no source for is 0.
func runTraced(cfg config, name string, buildSeconds float64) (*runResult, error) {
	r := &runResult{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string]float64{"bench.build_s": buildSeconds}
	load, speed := loadavg1(), cfg.sampleSpeed()
	r.Rounds = append(r.Rounds, roundInfo{Loadavg1: load, Flagged: load > busyLoadavg, Speed: speed})
	if name != wSwiftScript { // swiftrun has no hook to trace through; probes only
		a := cfg.childArgs(name, "round")
		a.Divisor, a.Twin = tracedDivisor, true
		if cfg.smoke {
			a.Divisor = 1 // already tiny
		}
		plain, err := spawn(a)
		if err != nil {
			return nil, err
		}
		a.Traced = true
		a.TraceOut = filepath.Join(cfg.build, "trace-"+name+".jsonl")
		traced, err := spawn(a)
		if err != nil {
			return nil, err
		}
		for k, v := range traced.Metrics {
			values[k] = v
		}
		base := plain.Metrics["jobs_per_s"]
		values["trace.overhead_frac"] = (base - traced.Metrics["jobs_per_s"]) / base
		r.Attempted, r.Failed = plain.Attempted+traced.Attempted, plain.Failed+traced.Failed
		r.Problems = append(append(r.Problems, plain.Problems...), traced.Problems...)
	}
	probes, err := spawn(cfg.childArgs(name, "probes"))
	if err != nil {
		return nil, err
	}
	for k, v := range probes.Metrics {
		values[k] = v
	}
	r.Attempted += probes.Attempted
	// Per-layer values are reported as measured; the index is there to read
	// them against.
	r.SpeedAfter = cfg.sampleSpeed()
	r.SpeedIndex = speedIndex([]speedSample{speed, r.SpeedAfter})
	values["bench.machine_speed"] = r.SpeedIndex
	for _, def := range cfg.cat.PerLayer {
		r.Metrics[def.Name] = metricValue{Median: values[def.Name], Unit: def.Unit, Rounds: []float64{values[def.Name]}}
	}
	r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return r, nil
}
