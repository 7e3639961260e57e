package hydra

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/mpi"
	"jets/internal/proto"
)

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{JobID: "j", NProcs: 4, Cmd: "app"}, true},
		{JobSpec{JobID: "j", NProcs: 0, Cmd: "app"}, false},
		{JobSpec{JobID: "j", NProcs: -1, Cmd: "app"}, false},
		{JobSpec{JobID: "j", NProcs: 2, Cmd: ""}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%+v: err=%v", tc.spec, err)
		}
	}
}

func TestSanitizeToken(t *testing.T) {
	if got := sanitizeToken("job 1/x"); got != "job_1_x" {
		t.Errorf("got %q", got)
	}
	if got := sanitizeToken(""); got != "job" {
		t.Errorf("empty: got %q", got)
	}
}

func TestProxyTasksShape(t *testing.T) {
	m, err := StartMPIExec(JobSpec{JobID: "j1", NProcs: 4, Cmd: "app", Args: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tasks := m.ProxyTasks()
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	for rank, task := range tasks {
		if task.Rank != rank || task.Size != 4 {
			t.Errorf("task %d: rank=%d size=%d", rank, task.Rank, task.Size)
		}
		if task.Control != m.ControlAddr() || task.KVS != m.KVSName() {
			t.Errorf("task %d control/kvs mismatch", rank)
		}
		if task.JobID != "j1" || task.Cmd != "app" || len(task.Args) != 2 {
			t.Errorf("task %d spec fields wrong: %+v", rank, task)
		}
	}
	// Args slices must be independent copies.
	tasks[0].Args[0] = "mutated"
	if m.Spec.Args[0] != "a" {
		t.Error("ProxyTasks aliased spec args")
	}
}

func TestKVSNamesUnique(t *testing.T) {
	a, err := StartMPIExec(JobSpec{JobID: "same", NProcs: 1, Cmd: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := StartMPIExec(JobSpec{JobID: "same", NProcs: 1, Cmd: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.KVSName() == b.KVSName() {
		t.Fatalf("duplicate kvs name %q", a.KVSName())
	}
}

// TestOneControlEndpoint: every mpiexec of the process answers at the same
// address, and starting or closing one neither listens nor disturbs another.
// Two jobs run their ranks at that address concurrently and each wires up
// only with its own.
func TestOneControlEndpoint(t *testing.T) {
	runner := NewFuncRunner()
	runner.Register("sum", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			fmt.Fprintf(stdout, "init error: %v\n", err)
			return 1
		}
		defer comm.Close()
		out, err := comm.AllreduceInt64(mpi.OpSum, []int64{1})
		if err != nil || out[0] != int64(comm.Size()) {
			fmt.Fprintf(stdout, "allreduce got %v err %v\n", out, err)
			return 1
		}
		return 0
	})
	sizes := []int{3, 5}
	var execs []*MPIExec
	for i, n := range sizes {
		m, err := StartMPIExec(JobSpec{JobID: fmt.Sprintf("shared-%d", i), NProcs: n, Cmd: "sum"})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		execs = append(execs, m)
	}
	if execs[0].ControlAddr() != execs[1].ControlAddr() {
		t.Fatalf("control endpoints %s and %s: want one per process", execs[0].ControlAddr(), execs[1].ControlAddr())
	}
	// A job that comes and goes in between takes nothing with it.
	gone, err := StartMPIExec(JobSpec{JobID: "gone", NProcs: 2, Cmd: "sum"})
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()

	wired := make(chan string, len(execs))
	for _, m := range execs {
		m.OnWired(func() { wired <- m.KVSName() })
	}
	var wg sync.WaitGroup
	for _, m := range execs {
		for _, task := range m.ProxyTasks() {
			wg.Add(1)
			go func(task proto.Task) {
				defer wg.Done()
				var out bytes.Buffer
				if res := RunProxy(context.Background(), &task, runner, &out); res.ExitCode != 0 {
					t.Errorf("%s: exit=%d err=%q out=%q", task.TaskID, res.ExitCode, res.Err, out.String())
				}
			}(task)
		}
	}
	wg.Wait()
	// Each job is over once its ranks' results are in; each wired up once.
	if len(wired) != len(execs) {
		t.Errorf("%d of %d jobs wired up", len(wired), len(execs))
	}
	// A rank of a closed job is turned away at the shared address.
	task := gone.ProxyTasks()[0]
	if res := RunProxy(context.Background(), &task, runner, io.Discard); res.ExitCode == 0 {
		t.Error("a rank of a closed job wired up")
	}
}

// TestFullMPIJobThroughProxies is the core integration test of the JETS
// launch mechanism: start mpiexec, run each proxy concurrently (as workers
// would), have the user app wire up with internal/mpi and do real
// communication, and observe completion through the proxies' results, as the
// dispatcher does.
func TestFullMPIJobThroughProxies(t *testing.T) {
	const n = 6
	m, err := StartMPIExec(JobSpec{JobID: "mpijob", NProcs: n, Cmd: "barrier-app"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	runner := NewFuncRunner()
	runner.Register("barrier-app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			fmt.Fprintf(stdout, "init error: %v\n", err)
			return 1
		}
		defer comm.Close()
		if err := comm.Barrier(); err != nil {
			return 1
		}
		out, err := comm.AllreduceInt64(mpi.OpSum, []int64{1})
		if err != nil || out[0] != n {
			fmt.Fprintf(stdout, "allreduce got %v err %v\n", out, err)
			return 1
		}
		fmt.Fprintf(stdout, "rank %s ok\n", env["PMI_RANK"])
		return 0
	})

	var wg sync.WaitGroup
	results := make([]proto.Result, n)
	outputs := make([]bytes.Buffer, n)
	for i, task := range m.ProxyTasks() {
		wg.Add(1)
		go func(i int, task proto.Task) {
			defer wg.Done()
			results[i] = RunProxy(context.Background(), &task, runner, &outputs[i])
		}(i, task)
	}
	wg.Wait()
	if m.Aborted() {
		t.Fatal("a job whose ranks all ran was aborted")
	}
	for i, r := range results {
		if r.ExitCode != 0 {
			t.Errorf("rank %d exit=%d err=%q out=%q", i, r.ExitCode, r.Err, outputs[i].String())
		}
		if !strings.Contains(outputs[i].String(), fmt.Sprintf("rank %d ok", i)) {
			t.Errorf("rank %d output %q", i, outputs[i].String())
		}
		if r.Elapsed <= 0 {
			t.Errorf("rank %d elapsed %v", i, r.Elapsed)
		}
	}
}

func TestAbortUnblocksRanks(t *testing.T) {
	// Start a 2-proc job but run only rank 0; it blocks in the PMI barrier
	// during wire-up. Abort must unblock it with an error (the paper's
	// fault-recoverability property of the TCP stack).
	m, err := StartMPIExec(JobSpec{JobID: "stuck", NProcs: 2, Cmd: "app"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	runner := NewFuncRunner()
	runner.Register("app", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		comm, err := mpi.InitEnvFrom(env)
		if err != nil {
			return 3 // expected path: wire-up fails after abort
		}
		comm.Close()
		return 0
	})
	task := m.ProxyTasks()[0]
	done := make(chan proto.Result, 1)
	go func() {
		done <- RunProxy(context.Background(), &task, runner, io.Discard)
	}()
	time.Sleep(100 * time.Millisecond)
	m.Abort()
	select {
	case r := <-done:
		if r.ExitCode == 0 {
			t.Fatalf("aborted rank reported success: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank did not unblock after abort")
	}
	if !m.Aborted() {
		t.Error("Aborted() false after Abort")
	}
}

func TestFuncRunnerUnknownApp(t *testing.T) {
	runner := NewFuncRunner()
	task := proto.Task{TaskID: "t", Cmd: "missing"}
	res := RunProxy(context.Background(), &task, runner, io.Discard)
	if res.ExitCode == 0 || res.Err == "" {
		t.Fatalf("unknown app should fail: %+v", res)
	}
}

func TestFuncRunnerNames(t *testing.T) {
	r := NewFuncRunner()
	r.Register("b", nil)
	r.Register("a", nil)
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names=%v", names)
	}
}

func TestProxyWallLimit(t *testing.T) {
	runner := NewFuncRunner()
	runner.Register("sleepy", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		select {
		case <-ctx.Done():
			return 9
		case <-time.After(10 * time.Second):
			return 0
		}
	})
	task := proto.Task{TaskID: "t", Cmd: "sleepy", WallLimit: 50 * time.Millisecond}
	start := time.Now()
	res := RunProxy(context.Background(), &task, runner, io.Discard)
	if time.Since(start) > 5*time.Second {
		t.Fatal("wall limit not enforced")
	}
	if res.ExitCode != 9 {
		t.Fatalf("exit=%d", res.ExitCode)
	}
	if res.Err == "" {
		t.Fatal("wall-limit violation should carry an error")
	}
}

func TestSequentialTaskNoPMI(t *testing.T) {
	// A plain sequential task (no Control endpoint) must run without any
	// PMI environment, as in Falkon-style single-process mode.
	runner := NewFuncRunner()
	runner.Register("seq", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		if _, ok := env["PMI_PORT"]; ok {
			return 1
		}
		fmt.Fprintln(stdout, "seq done")
		return 0
	})
	task := proto.Task{TaskID: "t", Cmd: "seq"}
	var out bytes.Buffer
	res := RunProxy(context.Background(), &task, runner, &out)
	if res.ExitCode != 0 {
		t.Fatalf("exit=%d err=%s", res.ExitCode, res.Err)
	}
	if !strings.Contains(out.String(), "seq done") {
		t.Fatalf("out=%q", out.String())
	}
}

func TestExecRunner(t *testing.T) {
	var out bytes.Buffer
	task := proto.Task{TaskID: "t", Cmd: "/bin/sh", Args: []string{"-c", "echo real-process"}}
	res := RunProxy(context.Background(), &task, ExecRunner{}, &out)
	if res.ExitCode != 0 {
		t.Skipf("no /bin/sh available: %+v", res)
	}
	if !strings.Contains(out.String(), "real-process") {
		t.Fatalf("out=%q", out.String())
	}
}

func TestExecRunnerExitCode(t *testing.T) {
	task := proto.Task{TaskID: "t", Cmd: "/bin/sh", Args: []string{"-c", "exit 7"}}
	res := RunProxy(context.Background(), &task, ExecRunner{}, io.Discard)
	if res.ExitCode != 7 {
		t.Skipf("expected exit 7, got %+v (no shell?)", res)
	}
}
