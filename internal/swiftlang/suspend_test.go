package swiftlang

// Tests of the suspension path: a fast statement that reaches an unset future
// is parked as a record, woken by Set onto the ready list, and retried by the
// run's one runner goroutine.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/obs"
)

// chainSrc is the dependent two-stage chain: cooked[i] reads raw[i], which is
// still unset when the walk reaches the statement. The trailing trace runs
// inline once the root block has been walked — the foreach as far as its
// window lets it, so tests that mean "n statements are parked" by it raise
// the window to n.
const chainSrc = `
int n = toInt(arg("n", "4"));
app (file o) mkinput (int i) { "mkinput" i @o; }
app (file o) process (file a, int i) { "process" @a i @o; }
file raw[] <"raw_%d.file">;
file cooked[] <"cooked_%d.file">;
foreach i in [0:n-1] {
    raw[i] = mkinput(i);
    cooked[i] = process(raw[i], i * 2);
}
trace("walked");
`

// heldExecutor is an AsyncExecutor whose completions the test controls:
// invocations of the apps named at construction are kept until release, all
// others complete before ExecuteAsync returns.
type heldExecutor struct {
	mu    sync.Mutex
	hold  map[string]bool
	held  []heldCall
	calls map[string]int // command line -> times invoked
}

type heldCall struct {
	inv  AppInvocation
	done func(error)
}

func newHeldExecutor(hold ...string) *heldExecutor {
	x := &heldExecutor{hold: map[string]bool{}, calls: map[string]int{}}
	for _, app := range hold {
		x.hold[app] = true
	}
	return x
}

func (x *heldExecutor) Execute(context.Context, AppInvocation) error {
	return fmt.Errorf("heldExecutor is asynchronous only")
}

func (x *heldExecutor) ExecuteAsync(_ context.Context, inv AppInvocation, done func(error)) {
	x.mu.Lock()
	x.calls[strings.Join(inv.Tokens, " ")]++
	if x.hold[inv.App] {
		x.held = append(x.held, heldCall{inv, done})
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()
	done(nil)
}

// release completes, on the caller's goroutine, every held invocation that
// match accepts (all of them when match is nil) and reports how many.
func (x *heldExecutor) release(match func(AppInvocation) bool) int {
	x.mu.Lock()
	var out, keep []heldCall
	for _, c := range x.held {
		if match == nil || match(c.inv) {
			out = append(out, c)
		} else {
			keep = append(keep, c)
		}
	}
	x.held = keep
	x.mu.Unlock()
	for _, c := range out {
		c.done(nil)
	}
	return len(out)
}

func (x *heldExecutor) count(cmdline string) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.calls[cmdline]
}

// traceSignal is a Config.Stdout that closes a channel when a trace line with
// the given text is printed, and keeps everything printed.
type traceSignal struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	text string
	ch   chan struct{}
	once sync.Once
}

func newTraceSignal(text string) *traceSignal {
	return &traceSignal{text: text, ch: make(chan struct{})}
}

func (w *traceSignal) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	w.mu.Unlock()
	if strings.Contains(string(p), w.text) {
		w.once.Do(func() { close(w.ch) })
	}
	return len(p), nil
}

func (w *traceSignal) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func awaitChan(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// eventually polls cond, for state that changes on the runner goroutine.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startRun runs src in the background and returns the channel its error
// arrives on.
func startRun(ctx context.Context, t *testing.T, src string, cfg Config) <-chan error {
	t.Helper()
	prog := mustParse(t, src)
	if cfg.WorkDir == "" {
		cfg.WorkDir = t.TempDir()
	}
	errc := make(chan error, 1)
	go func() { errc <- Run(ctx, prog, cfg) }()
	return errc
}

func awaitRun(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run never returned")
		return nil
	}
}

func TestSuspendedStatementsSpawnNoGoroutines(t *testing.T) {
	const n = 20000
	setForeachHook(t, n, false) // one window holds the whole loop: n statements park
	ex := newHeldExecutor("mkinput")
	out := newTraceSignal("walked")
	base := runtime.NumGoroutine()
	susp0, res0 := swiftSuspended.Value(), swiftResumed.Value()
	errc := startRun(context.Background(), t, chainSrc, Config{
		Executor: ex, Stdout: out, Args: map[string]string{"n": fmt.Sprint(n)},
	})
	awaitChan(t, out.ch, "the walk to end")
	// Every stage-2 statement is now waiting for a stage-1 output.
	if got := swiftSuspended.Value() - susp0; got != n {
		t.Fatalf("%d statements suspended, want %d", got, n)
	}
	if g := runtime.NumGoroutine(); g >= 64 || g > base+8 {
		t.Fatalf("%d goroutines (%d before the run) with %d statements parked", g, base, n)
	}
	if got := ex.release(nil); got != n {
		t.Fatalf("released %d stage-1 completions, want %d", got, n)
	}
	if err := awaitRun(t, errc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for _, cmd := range []string{
			fmt.Sprintf("mkinput %d raw_%d.file", i, i),
			fmt.Sprintf("process raw_%d.file %d cooked_%d.file", i, 2*i, i),
		} {
			if got := ex.count(cmd); got != 1 {
				t.Fatalf("%q ran %d times, want once", cmd, got)
			}
		}
	}
	if got := len(ex.calls); got != 2*n {
		t.Fatalf("%d distinct invocations, want %d", got, 2*n)
	}
	if got := swiftSuspended.Value() - susp0; got != 0 {
		t.Fatalf("%d statements still counted as suspended after the run", got)
	}
	if got := swiftResumed.Value() - res0; got != n {
		t.Fatalf("%d retries, want one per suspended statement (%d)", got, n)
	}
}

// TestStatementReparksOnSecondInput: join reads a, then b. Completed in that
// order, the first wake-up's retry stops at b and parks again; completed in
// the opposite order, the one wake-up finds both set. Either way it runs once.
func TestStatementReparksOnSecondInput(t *testing.T) {
	const src = `
app (file o) mk (int i) { "mk" i @o; }
app (file o) join (file a, file b) { "join" @a @b @o; }
file a <"a.file">;
file b <"b.file">;
file c <"c.file">;
a = mk(1);
b = mk(2);
c = join(a, b);
trace("walked");
`
	arg := func(v string) func(AppInvocation) bool {
		return func(inv AppInvocation) bool { return inv.Tokens[1] == v }
	}
	for _, tc := range []struct {
		name          string
		first, second string
		retries       int64
	}{
		{"reading order", "1", "2", 2},
		{"opposite order", "2", "1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := newHeldExecutor("mk")
			out := newTraceSignal("walked")
			susp0, res0 := swiftSuspended.Value(), swiftResumed.Value()
			errc := startRun(context.Background(), t, src, Config{Executor: ex, Stdout: out})
			awaitChan(t, out.ch, "the walk to end")
			if got := swiftSuspended.Value() - susp0; got != 1 {
				t.Fatalf("%d statements suspended, want 1", got)
			}
			ex.release(arg(tc.first))
			if tc.retries == 2 {
				// Woken by a, retried, parked again on b.
				eventually(t, "the retry that parks again", func() bool {
					return swiftResumed.Value()-res0 == 1 && swiftSuspended.Value()-susp0 == 1
				})
			}
			if got := ex.count("join a.file b.file c.file"); got != 0 {
				t.Fatalf("join ran %d times with one input missing", got)
			}
			ex.release(arg(tc.second))
			if err := awaitRun(t, errc); err != nil {
				t.Fatal(err)
			}
			if got := ex.count("join a.file b.file c.file"); got != 1 {
				t.Fatalf("join ran %d times, want once", got)
			}
			if got := swiftResumed.Value() - res0; got != tc.retries {
				t.Fatalf("%d retries, want %d", got, tc.retries)
			}
			if got := swiftSuspended.Value() - susp0; got != 0 {
				t.Fatalf("%d statements still suspended after the run", got)
			}
		})
	}
}

// TestParkedForeachAndIfResume: compound statements suspend on their bound
// and condition like any other fast statement, and run their bodies — whose
// own statements suspend in turn — once resumed.
func TestParkedForeachAndIfResume(t *testing.T) {
	const src = `
app (file o) mk (int i) { "mk" i @o; }
app (file o) use (file a, int i) { "use" @a i @o; }
file a <"3">;
file later <"later.file">;
file outs[] <"out_%d.file">;
a = mk(1);
later = mk(2);
int n = toInt(filename(a));
foreach i in [1:n] {
    trace("body", i);
    outs[i] = use(later, i);
}
if (filename(a) == "3") {
    trace("then");
} else {
    trace("else");
}
trace("walked");
`
	ex := newHeldExecutor("mk")
	out := newTraceSignal("walked")
	susp0 := swiftSuspended.Value()
	errc := startRun(context.Background(), t, src, Config{Executor: ex, Stdout: out})
	awaitChan(t, out.ch, "the walk to end")
	// n's initializer and the if wait for a; the foreach waits for n.
	if got := swiftSuspended.Value() - susp0; got != 3 {
		t.Fatalf("%d statements suspended, want 3", got)
	}
	if s := out.String(); strings.Contains(s, "body") || strings.Contains(s, "then") {
		t.Fatalf("a body ran before its input was set:\n%s", s)
	}
	ex.release(func(inv AppInvocation) bool { return inv.Tokens[1] == "1" })
	// The bodies ran; the three use() calls inside the loop wait for later.
	eventually(t, "the loop body's statements to suspend", func() bool {
		return swiftSuspended.Value()-susp0 == 3
	})
	got := out.String()
	for _, want := range []string{"body 1\n", "body 2\n", "body 3\n", "then\n"} {
		if strings.Count(got, want) != 1 {
			t.Fatalf("want %q exactly once in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "else") {
		t.Fatalf("else branch ran:\n%s", got)
	}
	ex.release(nil)
	if err := awaitRun(t, errc); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if got := ex.count(fmt.Sprintf("use later.file %d out_%d.file", i, i)); got != 1 {
			t.Fatalf("use %d ran %d times, want once", i, got)
		}
	}
}

func TestCancelWithStatementsParked(t *testing.T) {
	const n = 10000
	setForeachHook(t, n, false) // one window holds the whole loop: n statements park
	ex := newHeldExecutor("mkinput")
	out := newTraceSignal("walked")
	base := runtime.NumGoroutine()
	susp0 := swiftSuspended.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := startRun(ctx, t, chainSrc, Config{
		Executor: ex, Stdout: out, Args: map[string]string{"n": fmt.Sprint(n)},
	})
	awaitChan(t, out.ch, "the walk to end")
	if got := swiftSuspended.Value() - susp0; got != n {
		t.Fatalf("%d statements suspended, want %d", got, n)
	}
	cancel()
	start := time.Now()
	var err error
	select {
	case err = <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled run did not return")
	}
	t.Logf("returned %v after cancel", time.Since(start))
	if err == nil || !strings.Contains(err.Error(), "dataflow: waiting for raw[") ||
		!strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %v does not name an awaited variable and the cancellation", err)
	}
	if got := swiftSuspended.Value() - susp0; got != 0 {
		t.Fatalf("%d statements still counted as suspended after cancel", got)
	}
	// The goroutine that called Run is the last to go.
	eventually(t, "the run's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	// Completions that arrive after the run gave up change nothing.
	if got := ex.release(nil); got != n {
		t.Fatalf("released %d late completions, want %d", got, n)
	}
	if got := len(ex.calls); got != n {
		t.Fatalf("%d invocations, want only the %d of stage 1", got, n)
	}
	if got := swiftSuspended.Value() - susp0; got != 0 {
		t.Fatalf("late completions moved the suspended gauge to %d", got)
	}
}

// TestCancelWithInvocationsInFlight: a run cut short with nothing parked but
// jobs outstanding reports the cancellation instead of returning nil.
func TestCancelWithInvocationsInFlight(t *testing.T) {
	ex := newHeldExecutor("mk")
	out := newTraceSignal("walked")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := startRun(ctx, t, `
app (file o) mk (int i) { "mk" i @o; }
file a;
a = mk(1);
trace("walked");
`, Config{Executor: ex, Stdout: out})
	awaitChan(t, out.ch, "the walk to end")
	cancel()
	if err := awaitRun(t, errc); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("canceled run returned %v", err)
	}
	ex.release(nil)
}

// TestResumedStatementMaySubmit pins the rule the suspension path depends on:
// app outputs are set from Handle.OnDone, under Dispatcher.mu, and a resumed
// app statement submits to that dispatcher — with BatchMax 1, straight away.
// A continuation run inline from Future.Set would deadlock on Dispatcher.mu.
func TestResumedStatementMaySubmit(t *testing.T) {
	runner := hydra.NewFuncRunner()
	for _, cmd := range []string{"mkinput", "process"} {
		runner.Register(cmd, func(context.Context, []string, map[string]string, io.Writer) int { return 0 })
	}
	exec, eng := startJETSRunner(t, 4, runner)
	exec.BatchMax = 1
	const n = 300
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunScript(ctx, chainSrc, Config{
		Executor: exec, WorkDir: t.TempDir(), Args: map[string]string{"n": fmt.Sprint(n)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Dispatcher().Stats().JobsCompleted; got != 2*n {
		t.Fatalf("completed %d jobs, want %d", got, 2*n)
	}
}

// scraper returns a function that reads one series the way an operator
// would: from the registry's Prometheus exposition.
func scraper(t *testing.T, reg *obs.Registry) func(series string) int64 {
	return func(series string) int64 {
		t.Helper()
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			var v int64
			if _, err := fmt.Sscanf(line, series+" %d", &v); err == nil {
				return v
			}
		}
		t.Fatalf("series %s missing from:\n%s", series, b.String())
		return 0
	}
}

// TestSuspensionMetricsScrape reads the two series the way an operator would,
// from the registry's exposition, mid-run and at exit.
func TestSuspensionMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	scrape := scraper(t, reg)
	const n = 50
	susp0, res0 := scrape("swift_statements_suspended"), scrape("swift_statements_resumed_total")
	ex := newHeldExecutor("mkinput")
	out := newTraceSignal("walked")
	errc := startRun(context.Background(), t, chainSrc, Config{
		Executor: ex, Stdout: out, Args: map[string]string{"n": fmt.Sprint(n)},
	})
	awaitChan(t, out.ch, "the walk to end")
	if got := scrape("swift_statements_suspended") - susp0; got != n {
		t.Fatalf("mid-run swift_statements_suspended moved by %d, want %d", got, n)
	}
	if got := scrape("swift_statements_resumed_total") - res0; got != 0 {
		t.Fatalf("mid-run swift_statements_resumed_total moved by %d, want 0", got)
	}
	ex.release(nil)
	if err := awaitRun(t, errc); err != nil {
		t.Fatal(err)
	}
	if got := scrape("swift_statements_suspended") - susp0; got != 0 {
		t.Fatalf("swift_statements_suspended is %d above its start at exit", got)
	}
	if got := scrape("swift_statements_resumed_total") - res0; got != n {
		t.Fatalf("swift_statements_resumed_total moved by %d, want %d", got, n)
	}
}
