package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The two real-binary workloads drive the shipped tools as a user would: a
// generated input file, the tool's own flags, and its own report line as the
// result. Per-job completion is not visible from outside a batch tool, so
// the latency pair is rebuilt from the job counters the tool exports on its
// -metrics-addr endpoint (see latenciesFromCounters).

// counterSample is one scrape of a tool's /metrics.
type counterSample struct {
	at                            time.Duration // since the tool was started
	submitted, completed, workers float64
}

func scrape(c *http.Client, url string, at func() time.Duration) (counterSample, error) {
	resp, err := c.Get(url)
	if err != nil {
		return counterSample{}, err
	}
	defer resp.Body.Close()
	s := counterSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "jets_jobs_submitted_total":
			dst = &s.submitted
		case "jets_jobs_completed_total":
			dst = &s.completed
		case "jets_workers":
			dst = &s.workers
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return s, fmt.Errorf("metric %s: %w", name, err)
		}
	}
	s.at = at()
	return s, sc.Err()
}

// crossing returns, for k = 1..n, the time at which a sampled monotone
// counter reached k, interpolating linearly between the two samples around
// it. value picks the counter out of a sample.
func crossing(samples []counterSample, n int, value func(counterSample) float64) []time.Duration {
	out := make([]time.Duration, n)
	i := 1
	for k := 1; k <= n; k++ {
		for i < len(samples)-1 && value(samples[i]) < float64(k) {
			i++
		}
		lo, hi := samples[i-1], samples[i]
		vlo, vhi := value(lo), value(hi)
		switch {
		case vhi <= vlo || float64(k) >= vhi:
			out[k-1] = hi.at
		default:
			frac := (float64(k) - vlo) / (vhi - vlo)
			out[k-1] = lo.at + time.Duration(max(frac, 0)*float64(hi.at-lo.at))
		}
	}
	return out
}

// latenciesFromCounters rebuilds per-job latency of a batch tool from its
// exported counters: the k-th job's latency is the time the completed
// counter reached k minus the time the submitted counter reached k. The
// dispatcher serves its queue first-in first-out, so the k-th completion is
// (to within the jobs in flight) the k-th submission. samples must start
// with a zero sample at the tool's start and end with (exit time, n, n).
func latenciesFromCounters(samples []counterSample, n int) []int64 {
	sub := crossing(samples, n, func(s counterSample) float64 { return s.submitted })
	comp := crossing(samples, n, func(s counterSample) float64 { return s.completed })
	lat := make([]int64, n)
	for i := range lat {
		lat[i] = int64(max(comp[i]-sub[i], 0))
	}
	return lat
}

// bannerWatch is the tool's stdout: it keeps the text and signals when the
// address banners have been printed.
type bannerWatch struct {
	mu         sync.Mutex
	buf        bytes.Buffer
	dispatcher string // worker endpoint, from "dispatcher on ADDR,"
	metrics    string // from "metrics on http://ADDR/metrics"
	ready      chan struct{}
	needDisp   bool
}

var (
	dispatcherRE = regexp.MustCompile(`dispatcher on ([0-9.]+:[0-9]+)`)
	metricsRE    = regexp.MustCompile(`metrics on http://([0-9.]+:[0-9]+)/metrics`)
)

func (b *bannerWatch) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if b.ready == nil {
		return len(p), nil
	}
	text := b.buf.String()
	if m := dispatcherRE.FindStringSubmatch(text); m != nil {
		b.dispatcher = m[1]
	}
	if m := metricsRE.FindStringSubmatch(text); m != nil {
		b.metrics = m[1]
	}
	if b.metrics != "" && (b.dispatcher != "" || !b.needDisp) {
		close(b.ready)
		b.ready = nil
	}
	return len(p), nil
}

func (b *bannerWatch) text() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// toolOutcome is what one run of a shipped tool looked like from outside.
type toolOutcome struct {
	setup     time.Duration // input generation + start until all workers registered
	wall      time.Duration // process start to process exit
	cpu       time.Duration // the tool, its workers and every task they forked
	maxRSSKiB float64       // of the process holding the dispatcher
	exitCode  int
	stdout    string
	samples   []counterSample
}

const (
	startupPoll = time.Millisecond      // while waiting for workers to register
	steadyPoll  = 20 * time.Millisecond // while the batch runs
	toolTimeout = 150 * time.Second
)

// runTool generates the inputs (prepare), starts the tool, attaches
// extWorkers external jets-worker processes and polls the tool's counters
// until it exits. Set-up ends when every worker has registered: with local
// workers that is when the tool prints its banners (NewEngine has waited for
// them), with external ones when a scrape first sees them all. Every process
// it starts has ended when it returns.
func runTool(bin string, argv []string, extWorkers int, prepare func() error) (toolOutcome, error) {
	var out toolOutcome
	t0 := time.Now()
	if err := prepare(); err != nil {
		return out, err
	}
	watch := &bannerWatch{ready: make(chan struct{}), needDisp: extWorkers > 0}
	ready := watch.ready
	cmd := exec.Command(filepath.Join(bin, argv[0]), argv[1:]...)
	cmd.Stdout, cmd.Stderr = watch, watch
	cpu0 := cpuTime()
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return out, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var workers []*exec.Cmd
	var waitErr error
	reap := func() {
		// The tool has exited (or is killed here); its workers see EOF on
		// their dispatcher connection and exit on their own, non-zero by
		// design. Kill whatever is still there after a grace period.
		for _, w := range workers {
			done := make(chan struct{})
			go func() { w.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				w.Process.Kill()
				<-done
			}
		}
	}
	fail := func(err error) (toolOutcome, error) {
		cmd.Process.Kill()
		<-exited
		reap()
		return out, fmt.Errorf("%s: %w\n%s", argv[0], err, watch.text())
	}

	select {
	case <-ready:
	case waitErr = <-exited:
		reap()
		return out, fmt.Errorf("%s exited before printing its address banners: %v\n%s", argv[0], waitErr, watch.text())
	case <-time.After(20 * time.Second):
		return fail(fmt.Errorf("no address banners after 20s"))
	}
	watch.mu.Lock()
	dispAddr, metricsURL := watch.dispatcher, "http://"+watch.metrics+"/metrics"
	watch.mu.Unlock()
	for i := 0; i < extWorkers; i++ {
		w := exec.Command(filepath.Join(bin, "jets-worker"),
			"-dispatcher", dispAddr, "-id", fmt.Sprintf("bench-w%d", i), "-coord", fmt.Sprintf("%d,0,0", i))
		if err := w.Start(); err != nil {
			return fail(err)
		}
		workers = append(workers, w)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	since := func() time.Duration { return time.Since(started) }
	out.samples = append(out.samples, counterSample{})
	registered := extWorkers == 0
	if registered {
		out.setup = time.Since(t0)
	}
	tick := time.NewTimer(startupPoll)
	defer tick.Stop()
	deadline := time.After(toolTimeout)
poll:
	for {
		select {
		case waitErr = <-exited:
			break poll
		case <-deadline:
			return fail(fmt.Errorf("still running after %v", toolTimeout))
		case <-tick.C:
			s, err := scrape(client, metricsURL, since)
			if err == nil {
				out.samples = append(out.samples, s)
				if !registered && int(s.workers) >= extWorkers {
					registered = true
					out.setup = time.Since(t0)
				}
			}
			if registered {
				tick.Reset(steadyPoll)
			} else {
				tick.Reset(startupPoll)
			}
		}
	}
	out.wall = since()
	reap()
	out.cpu = cpuTime() - cpu0
	out.stdout = watch.text()
	out.exitCode = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSSKiB = float64(ru.Maxrss)
	}
	if !registered {
		return out, fmt.Errorf("%s exited (%v) before %d workers were seen registered\n%s", argv[0], waitErr, extWorkers, out.stdout)
	}
	return out, nil
}

var (
	jetsReportRE  = regexp.MustCompile(`(?m)^jobs:\s+(\d+) \((\d+) failed\)`)
	swiftReportRE = regexp.MustCompile(`(?m)^swiftrun: (\d+) jobs \(`)
)

// toolResult turns a tool run into a round result. done and failedJobs come
// from the tool's own report line (done < 0: no report line was printed).
func toolResult(out toolOutcome, attempted, done, failedJobs int) *roundResult {
	res := &roundResult{Metrics: map[string]float64{}, Setups: []float64{out.setup.Seconds()}, Attempted: attempted}
	switch {
	case done < 0:
		res.Failed = attempted
		res.problemf("no report line in the tool's output (exit code %d)", out.exitCode)
	default:
		res.Failed = min(failedJobs+max(attempted-done, 0), attempted)
		if done != attempted {
			res.problemf("tool reports %d jobs, want %d", done, attempted)
		}
	}
	if out.exitCode != 0 {
		res.Failed = max(res.Failed, 1)
		res.problemf("tool exited with code %d", out.exitCode)
	}
	if res.Failed > 0 {
		res.problemf("%d of %d jobs failed or never completed", res.Failed, attempted)
	}
	samples := append(out.samples, counterSample{at: out.wall, submitted: float64(attempted), completed: float64(attempted)})
	lat := summarizeLatency(latenciesFromCounters(samples, attempted))
	res.LatencySamples, res.TailPct = lat.Samples, lat.TailPct
	res.Metrics["jobs_per_s"] = float64(attempted-res.Failed) / out.wall.Seconds()
	res.Metrics["cpu_us_per_job"] = float64(out.cpu.Microseconds()) / float64(attempted)
	res.Metrics["peak_rss_mib"] = out.maxRSSKiB / 1024
	res.Metrics["job_latency_p50_ms"] = lat.P50ms
	res.Metrics["job_latency_p99_ms"] = lat.TailMs
	return res
}

// runPilotExec is one round of pilot-exec: jets with no local workers, two
// external jets-worker processes, and a generated job file of real tasks.
// setupOnly runs a one-job file instead, to sample set-up time alone: a
// 2-process job of /bin/sleep, so the tool cannot finish before both workers
// have registered and stays up long enough for a scrape to see them.
func runPilotExec(bin string, seed int64, sz sizes, dir string, setupOnly bool) (*roundResult, error) {
	jobs, text := sz.PilotSeq+sz.PilotMPI, ""
	if setupOnly {
		jobs, text = 1, "MPI: 2 /bin/sleep 0.05\n"
	}
	input := filepath.Join(dir, "jobs.txt")
	out, err := runTool(bin, []string{"jets", "-input", input, "-workers", "0", "-metrics-addr", "127.0.0.1:0"},
		2, func() error {
			if !setupOnly {
				text = pilotJobFile(seed, sz.PilotSeq, sz.PilotMPI, filepath.Join(bin, "barrier"))
			}
			return os.WriteFile(input, []byte(text), 0o644)
		})
	if err != nil {
		return nil, err
	}
	done, failed := -1, 0
	if m := jetsReportRE.FindStringSubmatch(out.stdout); m != nil {
		done, _ = strconv.Atoi(m[1])
		failed, _ = strconv.Atoi(m[2])
	}
	return toolResult(out, jobs, done, failed), nil
}

// runSwiftScript is one round of swift-script: swiftrun on a generated
// two-stage chain, app commands replaced by in-process no-ops. setupOnly
// overrides the loop count to 1.
func runSwiftScript(bin string, seed int64, sz sizes, dir string, setupOnly bool) (*roundResult, error) {
	script := filepath.Join(dir, "chain.swift")
	n := sz.SwiftN
	argv := []string{"swiftrun", "-null-exec", "-workers", "8", "-workdir", filepath.Join(dir, "work"),
		"-metrics-addr", "127.0.0.1:0"}
	if setupOnly {
		n = 1
		argv = append(argv, "-arg", "n=1")
	}
	out, err := runTool(bin, append(argv, script), 0, func() error {
		return os.WriteFile(script, []byte(swiftScript(seed, sz.SwiftN)), 0o644)
	})
	if err != nil {
		return nil, err
	}
	done := -1
	if m := swiftReportRE.FindStringSubmatch(out.stdout); m != nil {
		done, _ = strconv.Atoi(m[1])
	}
	return toolResult(out, 2*n, done, 0), nil
}
