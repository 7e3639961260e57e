package core

// End-to-end scrape test for the observability endpoint: a real engine with
// local workers runs a mixed batch while an obshttp.Server serves the registry,
// and the /metrics exposition must carry live values from every layer —
// dispatcher counters and histograms, PMI wire-up, and worker counters.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
	"jets/internal/mpi"
	"jets/internal/obs"
	"jets/internal/obs/obshttp"
)

// metricValue extracts an unlabeled series' value from an exposition body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("unparseable value for %s: %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", name)
	return 0
}

func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsScrapeLiveEngine(t *testing.T) {
	reg := obs.NewRegistry()
	runner := hydra.NewFuncRunner()
	runner.Register("mpi-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 1
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 2
		}
		return 0
	})
	runner.Register("seq-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		fmt.Fprintln(stdout, "ok")
		return 0
	})
	eng, err := NewEngine(Options{LocalWorkers: 2, Runner: runner, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv, err := obshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The hydra/PMI/worker instruments are process-global (shared by every
	// engine in this test binary), so assert their growth across the batch
	// rather than absolute values.
	before := scrape(t, srv.Addr(), "/metrics")

	jobs := []dispatch.Job{
		{Spec: hydra.JobSpec{JobID: "m1", NProcs: 2, Cmd: "mpi-app"}, Type: dispatch.MPI},
		{Spec: hydra.JobSpec{JobID: "s1", NProcs: 1, Cmd: "seq-app"}, Type: dispatch.Sequential},
		{Spec: hydra.JobSpec{JobID: "s2", NProcs: 1, Cmd: "seq-app"}, Type: dispatch.Sequential},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := eng.RunBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("batch failures: %+v", rep.Results)
	}

	body := scrape(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		// Dispatcher counters sampled from the stats atomics.
		"jets_jobs_submitted_total 3",
		"jets_jobs_completed_total 3",
		"jets_jobs_failed_total 0",
		"jets_tasks_dispatched_total 4",
		"jets_workers_joined_total 2",
		// Live gauges: workers still registered, nothing queued or running.
		"jets_workers 2",
		"jets_queued_jobs 0",
		"jets_running_jobs 0",
		// Histograms observed every job.
		"jets_dispatch_queue_wait_seconds_count 3",
		"jets_dispatch_assembly_seconds_count 3",
		"jets_job_duration_seconds_count 3",
		// Per-shard labeled series exist.
		`jets_shard_idle_workers{shard="0"}`,
		// Exposition-format headers.
		"# TYPE jets_job_duration_seconds histogram",
		"# TYPE jets_workers gauge",
		"# TYPE jets_jobs_submitted_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Cross-layer deltas: one mpiexec and PMI wire-up for the MPI job, four
	// tasks executed by the local workers, and no aborts.
	for _, d := range []struct {
		name string
		want float64
	}{
		{"jets_pmi_wireup_seconds_count", 1},
		{"jets_mpiexec_starts_total", 1},
		{"jets_mpiexec_aborts_total", 0},
		{"jets_worker_tasks_executed_total", 4},
	} {
		got := metricValue(t, body, d.name) - metricValue(t, before, d.name)
		if got != d.want {
			t.Errorf("%s grew by %g across the batch, want %g", d.name, got, d.want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
	if !strings.Contains(scrape(t, srv.Addr(), "/debug/vars"), `"jets"`) {
		t.Error("/debug/vars missing jets snapshot")
	}
	if !strings.Contains(scrape(t, srv.Addr(), "/debug/pprof/goroutine?debug=1"), "goroutine") {
		t.Error("/debug/pprof/goroutine not serving")
	}
}

// TestPMIEndpointScrape runs 200 MPI jobs on 8 local workers and reads the
// control plane's cost off /metrics: one session per rank, no TCP connection
// (the ranks reach their process's endpoint through pipes) and no more pipes
// than workers, however many jobs ran. The
// ranks' own sessions are on the same page: one per tree edge, n-1 a job, on
// no more links than workers.
func TestPMIEndpointScrape(t *testing.T) {
	const workers, jobs = 8, 200
	reg := obs.NewRegistry()
	runner := hydra.NewFuncRunner()
	runner.Register("mpi-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 1
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 2
		}
		return 0
	})
	eng, err := NewEngine(Options{LocalWorkers: workers, Runner: runner, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := obshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := scrape(t, srv.Addr(), "/metrics")

	batch := make([]dispatch.Job, jobs)
	ranks, edges := 0, 0
	for i := range batch {
		n := []int{2, 4, 8}[i%3]
		ranks += n
		edges += n - 1
		batch[i] = dispatch.Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("g%d", i), NProcs: n, Cmd: "mpi-app"}, Type: dispatch.MPI}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := eng.RunBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("%d of %d jobs failed", rep.Failed(), jobs)
	}

	body := scrape(t, srv.Addr(), "/metrics")
	grew := func(name string) float64 { return metricValue(t, body, name) - metricValue(t, before, name) }
	if got := grew("jets_pmi_sessions_total"); got != float64(ranks) {
		t.Errorf("jets_pmi_sessions_total grew by %g, want one per rank = %d", got, ranks)
	}
	if got := grew("jets_pmi_wireup_seconds_count"); got != jobs {
		t.Errorf("jets_pmi_wireup_seconds observed %g wire-ups for %d jobs", got, jobs)
	}
	if accepted := grew("jets_pmi_connections_accepted_total"); accepted != 0 {
		t.Errorf("jets_pmi_connections_accepted_total grew by %g for %d jobs of in-process ranks, want 0", accepted, jobs)
	}
	if open := metricValue(t, body, "jets_pmi_connections_open"); open < 1 {
		t.Errorf("jets_pmi_connections_open = %g with kept connections idle", open)
	} else if grown := grew("jets_pmi_connections_open"); grown > workers {
		t.Errorf("jets_pmi_connections_open grew by %g for %d jobs: want at most one pipe per worker = %d", grown, jobs, workers)
	}
	if !strings.Contains(body, "# TYPE jets_pmi_connections_open gauge") {
		t.Error("jets_pmi_connections_open is not exported as a gauge")
	}
	if got := grew("jets_mpi_sessions_total"); got != float64(edges) {
		t.Errorf("jets_mpi_sessions_total grew by %g, want n-1 per job = %d", got, edges)
	}
	dialed, taken := grew("jets_mpi_connections_dialed_total"), grew("jets_mpi_connections_accepted_total")
	if dialed > workers || taken != dialed {
		t.Errorf("rank-pair links: %g dialed, %g accepted, want at most %d workers, as many", dialed, taken, workers)
	}
	if got := grew("jets_mpi_connections_discarded_total"); got != 0 {
		t.Errorf("jets_mpi_connections_discarded_total grew by %g in barrier-only jobs", got)
	}
}

// TestMPIJobThatNeverSpeaksPMI: ranks that are plain executables (the
// benchmark's set-up job, `MPI: 2 /bin/sleep 0.05`) get a KVS at the control
// endpoint and never open a session in it. The job completes and leaves
// nothing behind.
func TestMPIJobThatNeverSpeaksPMI(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := NewEngine(Options{LocalWorkers: 2, Runner: hydra.ExecRunner{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sessions := reg.Lookup("jets_pmi_sessions_total").(*obs.Counter)
	starts := reg.Lookup("jets_mpiexec_starts_total").(*obs.Counter)
	s0, m0 := sessions.Value(), starts.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := eng.RunFile(ctx, strings.NewReader("MPI: 2 /bin/sleep 0.05\nMPI: 2 /bin/sleep 0.05\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Skipf("no /bin/sleep here? %+v", rep.Results)
	}
	if got := starts.Value() - m0; got != 2 {
		t.Errorf("%d mpiexec starts, want 2", got)
	}
	if got := sessions.Value() - s0; got != 0 {
		t.Errorf("%d PMI sessions for ranks that never spoke PMI", got)
	}
}
