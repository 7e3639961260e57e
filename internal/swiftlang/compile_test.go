package swiftlang

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jets/internal/core"
	"jets/internal/hydra"
)

// TestCompiledProgramReuse compiles once and runs the result twice; a
// CompiledProgram must be stateless across runs.
func TestCompiledProgramReuse(t *testing.T) {
	prog, err := Parse(loadScript(t, "gen.swift"))
	if err != nil {
		t.Fatal(err)
	}
	cp := Compile(prog)
	for run := 0; run < 2; run++ {
		exec := NewFuncExecutor()
		exec.Register("gen", func(ctx context.Context, inv AppInvocation) error { return nil })
		err := cp.Run(context.Background(), Config{
			Executor: exec, WorkDir: t.TempDir(), Args: map[string]string{"n": "25"},
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := len(exec.Calls()); got != 25 {
			t.Fatalf("run %d: %d invocations, want 25", run, got)
		}
	}
	if compileNanos.Load() <= 0 {
		t.Fatal("compile duration gauge not recorded")
	}
}

func startJETS(t *testing.T, workers int) (*JETSExecutor, *core.Engine) {
	t.Helper()
	runner := hydra.NewFuncRunner()
	runner.Register("gen", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		return 0
	})
	return startJETSRunner(t, workers, runner)
}

func startJETSRunner(t *testing.T, workers int, runner hydra.Runner) (*JETSExecutor, *core.Engine) {
	t.Helper()
	exec := NewJETSExecutor()
	eng, err := core.NewEngine(core.Options{
		LocalWorkers: workers, Runner: runner, OnOutput: exec.OutputSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	exec.Bind(eng)
	return exec, eng
}

// TestCompiledJETSBatch drives a compiled generator script through the real
// engine with batched submission and checks every task completes.
func TestCompiledJETSBatch(t *testing.T) {
	exec, eng := startJETS(t, 4)
	exec.BatchMax = 16
	src := `
int n = toInt(arg("n", "60"));
app () gen (int i) {
    "gen" i;
}
foreach i in [1:n] {
    gen(i);
}
`
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := RunScript(ctx, src, Config{
		Executor: exec, WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Dispatcher().Stats().JobsCompleted; got != 60 {
		t.Fatalf("completed %d jobs, want 60", got)
	}
}

// TestExecuteAsyncFlushTimer checks that submissions below BatchMax still
// flush once BatchDelay elapses.
func TestExecuteAsyncFlushTimer(t *testing.T) {
	exec, _ := startJETS(t, 2)
	exec.BatchMax = 1000
	exec.BatchDelay = 10 * time.Millisecond
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		inv := AppInvocation{App: "gen", Tokens: []string{"gen", fmt.Sprint(i)}}
		exec.ExecuteAsync(context.Background(), inv, func(err error) {
			if err == nil {
				done.Add(1)
			}
			wg.Done()
		})
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(30 * time.Second):
		t.Fatal("timer flush never completed the batch")
	}
	if done.Load() != 3 {
		t.Fatalf("%d/3 submissions succeeded", done.Load())
	}
}

// TestOutputDirectoriesMadeOnce: buildJob creates a job's output directories,
// however deep, and asks the file system about each directory only once — a
// second job writing into the same place costs no further MkdirAll (and so no
// stat system call).
func TestOutputDirectoriesMadeOnce(t *testing.T) {
	var calls []string
	real := mkdirAll
	mkdirAll = func(dir string, perm os.FileMode) error {
		calls = append(calls, dir)
		return real(dir, perm)
	}
	defer func() { mkdirAll = real }()

	x := NewJETSExecutor()
	root := t.TempDir()
	deep := filepath.Join(root, "a", "b", "c")
	logs := filepath.Join(root, "logs", "today")
	inv := func(i int) AppInvocation {
		return AppInvocation{
			App: "w", Tokens: []string{"w"},
			OutFiles:   []string{filepath.Join(deep, fmt.Sprintf("out_%d", i)), filepath.Join(deep, fmt.Sprintf("aux_%d", i)), fmt.Sprintf("cwd_%d", i)},
			StdoutFile: filepath.Join(logs, fmt.Sprintf("log_%d", i)),
		}
	}
	if _, rd, err := x.buildJob(inv(0)); err != nil {
		t.Fatal(err)
	} else if rd == nil || rd.path != filepath.Join(logs, "log_0") {
		t.Fatalf("stdout redirect %+v", rd)
	}
	for _, dir := range []string{deep, logs} {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("fresh nested directory %s not created: %v", dir, err)
		}
	}
	if _, err := os.Stat(filepath.Join(logs, "log_0")); err != nil {
		t.Fatalf("an app that prints nothing must still leave its stdout file: %v", err)
	}
	if len(calls) != 2 {
		t.Fatalf("first job made %v, want one MkdirAll per distinct directory", calls)
	}
	for i := 1; i < 50; i++ {
		if _, _, err := x.buildJob(inv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(calls) != 2 {
		t.Fatalf("later jobs into the same directories made %v", calls[2:])
	}
	// A directory that cannot be made is still an error, every time.
	blocked := filepath.Join(root, "logs", "today", "log_0", "sub")
	for i := 0; i < 2; i++ {
		if _, _, err := x.buildJob(AppInvocation{App: "w", Tokens: []string{"w"}, OutFiles: []string{filepath.Join(blocked, "o")}}); err == nil {
			t.Fatal("output under a regular file accepted")
		}
	}
}
