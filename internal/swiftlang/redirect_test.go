//go:build linux

package swiftlang

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"jets/internal/hydra"
)

// TestStdoutRedirectContents: chunks written by a task arrive in its
// stdout=@ file in order, and an app that prints nothing leaves an empty file.
func TestStdoutRedirectContents(t *testing.T) {
	runner := hydra.NewFuncRunner()
	runner.Register("say", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		for _, a := range args {
			fmt.Fprintf(stdout, "%s\n", a)
		}
		return 0
	})
	exec, _ := startJETSRunner(t, 2, runner)
	dir := t.TempDir()
	src := fmt.Sprintf(`
app (file o) say3 (int i) { "say" "one" i "three" stdout=@o; }
app (file o) mute () { "say" stdout=@o; }
file loud[] <"%[1]s/loud_%%d.out">;
file quiet <"%[1]s/quiet.out">;
foreach i in [0:9] {
    loud[i] = say3(i);
}
quiet = mute();
`, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := RunScript(ctx, src, Config{Executor: exec, WorkDir: dir}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("loud_%d.out", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("one\n%d\nthree\n", i); string(got) != want {
			t.Fatalf("loud_%d.out = %q, want %q", i, got, want)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "quiet.out"))
	if err != nil {
		t.Fatalf("an app that prints nothing left no file: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("quiet.out = %q, want empty", got)
	}
	exec.mu.Lock()
	left := len(exec.stdouts)
	exec.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d redirects still registered after the run", left)
	}
}

// TestRedirectDescriptorsBoundedByRunningTasks runs the pipeline script —
// every app call redirected with stdout=@ — far deeper than the descriptor
// limit. Holding a descriptor per queued invocation dies here with "too many
// open files"; descriptors must follow the tasks that are running and have
// printed, not the queue.
func TestRedirectDescriptorsBoundedByRunningTasks(t *testing.T) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	low := old
	low.Cur = 256
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
			t.Errorf("restoring RLIMIT_NOFILE: %v", err)
		}
	}()

	// No task finishes before the whole script has been walked — in one
	// window, so the queue is n deep however fast this machine's workers are.
	walked := newTraceSignal("pipeline")
	runner := hydra.NewFuncRunner()
	for _, cmd := range []string{"mkinput", "process", "combine"} {
		runner.Register(cmd, func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
			select {
			case <-walked.ch:
			case <-ctx.Done():
				return 1
			}
			fmt.Fprintln(stdout, args)
			return 0
		})
	}
	exec, eng := startJETSRunner(t, 4, runner)
	dir := t.TempDir()
	// The script maps its files relative to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	src := loadScript(t, "pipeline.swift")
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	const n = 4000
	setForeachHook(t, n, false)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err = RunScript(ctx, src, Config{
		Executor: exec, WorkDir: dir, Stdout: walked, Args: map[string]string{"n": fmt.Sprint(n)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Dispatcher().Stats().JobsCompleted; got != 2*n+1 {
		t.Fatalf("completed %d jobs, want %d", got, 2*n+1)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("cooked_%d.file", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("[raw_%d.file %d]\n", i, 2*i); string(got) != want {
			t.Fatalf("cooked_%d.file = %q, want %q", i, got, want)
		}
	}
}
