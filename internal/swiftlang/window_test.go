package swiftlang

// Tests of the windowed foreach walk: the compile-time classification
// (flow.go), the credit accounting and loop parking (runtime.go), and the
// retirement of what an iteration owned.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"jets/internal/obs"
)

// setForeachHook installs the test hook for the rest of the test. Tests that
// use it must not run in parallel.
func setForeachHook(t *testing.T, window int64, forceWindowable bool) {
	t.Helper()
	old := foreachHook
	foreachHook.window, foreachHook.forceWindowable = window, forceWindowable
	t.Cleanup(func() { foreachHook = old })
}

// hazardApps declares the apps the hand-written scripts call; every command
// is its app's name followed by its arguments.
const hazardApps = `
int n = toInt(arg("n", "4"));
app (file o) f (int i) { "f" i @o; }
app (file o) g (file a) { "g" @a @o; }
app (file o) g2 (file a, int i) { "g2" @a i @o; }
app () t (int i, int j) { "t" i j; }
`

// hazards are scripts in which a walked iteration waits for an unwalked one,
// each through a different hole a naive window would have. All of them finish
// when walked whole.
var hazards = []struct {
	name, body, reason string
}{
	{"cross-iteration read", `
file x[] <"x_%d">;
file y[] <"y_%d">;
foreach i in [0:n-1] {
    y[i] = g(x[n-1-i]);
    x[i] = f(i);
}`, "reads x"},
	{"outside feedback", `
file a[] <"a_%d">;
file b <"b">;
file c[] <"c_%d">;
b = g(a[n-1]);
foreach i in [0:n-1] {
    a[i] = f(i);
    c[i] = g(b);
}`, "reads b"},
	{"tainted through an if condition", `
file a[] <"a_%d">;
file b <"b">;
file c[] <"c_%d">;
if (filename(a[n-1]) != "") {
    b = f(0);
}
foreach i in [0:n-1] {
    a[i] = f(i);
    c[i] = g(b);
}`, "reads b"},
	{"tainted nested-loop bound", `
file a[] <"%d">;
foreach i in [0:n-1] {
    a[i] = f(i);
    foreach j in [0:toInt(filename(a[n-1-i])) * 0] {
        t(i, j);
    }
}`, "reads a"},
	{"body statement that is not fast", `
file x[] <"x_%d">;
foreach i in [0:n-1] {
    file y <strcat("y_", toString(i))> = g(x[n-1-i]);
    x[i] = f(i);
}`, "goroutine of its own"},
	{"same-index read, write in a sibling branch", `
file x[] <"x_%d">;
file y[] <"y_%d">;
foreach i in [0:n-1] {
    if (i >= n / 2) {
        x[i] = f(i);
        x[n-1-i] = f(n-1-i);
    }
    y[i] = g(x[i]);
}`, "reads x"},
	{"two loops feeding each other", `
file a[] <"a_%d">;
file b[] <"b_%d">;
file c[] <"c_%d">;
file d[] <"d_%d">;
foreach i in [0:n-1] {
    a[i] = f(i);
    c[i] = g(b[i]);
}
foreach j in [0:n-1] {
    b[j] = f(j);
    d[j] = g(a[n-1-j]);
}`, "reads "},
}

// compileLoops returns the compiler's verdict on every foreach of src, keyed
// by the loop's line.
func compileLoops(t *testing.T, src string) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, l := range Compile(mustParse(t, src)).loops {
		out[l.line] = l.unbounded
	}
	return out
}

func TestForeachClassification(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		// line of each foreach -> windowable
		want := map[string]map[int]bool{
			"fig14.swift":    {14: true},
			"fig17.swift":    {23: true, 27: false, 28: false},
			"gen.swift":      {12: true},
			"pipeline.swift": {22: true},
		}
		for name, loops := range want {
			got := compileLoops(t, loadScript(t, name))
			if len(got) != len(loops) {
				t.Errorf("%s: %d loops classified, want %d: %v", name, len(got), len(loops), got)
			}
			for line, windowable := range loops {
				reason, ok := got[line]
				if !ok || (reason == "") != windowable {
					t.Errorf("%s:%d: classified %q (found %v), want windowable=%v", name, line, reason, ok, windowable)
				}
			}
		}
		if got := compileLoops(t, chainSrc); len(got) != 1 || got[7] != "" {
			t.Errorf("the chain classified %v, want its one loop windowable", got)
		}
	})

	for _, h := range hazards {
		t.Run(h.name, func(t *testing.T) {
			const w = 8
			src := hazardApps + h.body
			unbounded := 0
			for line, reason := range compileLoops(t, src) {
				if reason == "" {
					continue
				}
				unbounded++
				if !strings.Contains(reason, h.reason) {
					t.Errorf("line %d is unbounded because %q, want a reason with %q", line, reason, h.reason)
				}
			}
			if unbounded == 0 {
				t.Fatal("no loop classified unbounded")
			}
			run := func(limit time.Duration) error {
				ctx, cancel := context.WithTimeout(context.Background(), limit)
				defer cancel()
				return RunScript(ctx, src, Config{
					Executor: newHeldExecutor(), WorkDir: t.TempDir(),
					Args: map[string]string{"n": fmt.Sprint(4 * w)},
				})
			}
			setForeachHook(t, w, false)
			if err := run(10 * time.Second); err != nil {
				t.Fatalf("under its real classification: %v", err)
			}
			// The test bites: windowed regardless, the same script deadlocks.
			setForeachHook(t, w, true)
			err := run(300 * time.Millisecond)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("forced windowable, the run returned %v, want a deadlock cut short by the deadline", err)
			}
			t.Logf("forced windowable: %v", err)
		})
	}
}

// TestWindowableShapes: reads the rule lets through — an earlier loop's
// output, a same-iteration element in a nested block, a private scalar — stay
// windowable, and finish on a window far smaller than the loop.
func TestWindowableShapes(t *testing.T) {
	src := hazardApps + `
file a[] <"a_%d">;
file b[] <"b_%d">;
file c[] <"c_%d">;
file seed <"seed">;
seed = f(0);
foreach i in [0:n-1] {
    a[i] = g(seed);
}
foreach i in [0:n-1] {
    file mid <strcat("mid_", toString(i))>;
    mid = g(a[n-1-i]);
    b[i] = g(mid);
    if (i %% 2 == 0) {
        c[i] = g(b[i]);
    }
}`
	for line, reason := range compileLoops(t, src) {
		if reason != "" {
			t.Errorf("line %d classified unbounded: %s", line, reason)
		}
	}
	setForeachHook(t, 2, false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ex := newHeldExecutor()
	if err := RunScript(ctx, src, Config{Executor: ex, WorkDir: t.TempDir(), Args: map[string]string{"n": "40"}}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(ex.calls), 1+40+40+40+20; got != want {
		t.Fatalf("%d distinct invocations, want %d", got, want)
	}
}

// gaugeBase snapshots the package-level foreach gauges, which earlier runs in
// the same process leave at zero but tests should not depend on.
type gaugeBase struct{ inflight, parked, unbounded int64 }

func foreachGauges() gaugeBase {
	return gaugeBase{swiftIterationsInflight.Value(), swiftLoopsParked.Value(), swiftUnbounded.Value()}
}

func (b gaugeBase) delta() gaugeBase {
	now := foreachGauges()
	return gaugeBase{now.inflight - b.inflight, now.parked - b.parked, now.unbounded - b.unbounded}
}

func (x *heldExecutor) heldNow() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.held)
}

// TestWindowBoundsInFlightIterations walks the chain against an executor that
// completes nothing until told to: the walk stops at W iterations each time,
// resumes as completions retire them, and never runs a statement twice.
func TestWindowBoundsInFlightIterations(t *testing.T) {
	const n = 50000
	w := int(foreachWindow(nil))
	if n < 3*w {
		t.Fatalf("window %d leaves nothing to bound at n=%d", w, n)
	}
	ex := newHeldExecutor("mkinput")
	base, gauges := runtime.NumGoroutine(), foreachGauges()
	errc := startRun(context.Background(), t, chainSrc, Config{
		Executor: ex, Args: map[string]string{"n": fmt.Sprint(n)},
	})
	// The walk goes as far as its credits and parks the loop.
	eventually(t, "the loop to park", func() bool { return gauges.delta().parked == 1 })
	if d := gauges.delta(); d.inflight != int64(w) || ex.heldNow() != w {
		t.Fatalf("parked with %d iterations in flight and %d invocations held, want the window, %d", d.inflight, ex.heldNow(), w)
	}
	rounds, peakGoroutines := 0, 0
	var err error
	for done := false; !done; {
		select {
		case err = <-errc:
			done = true
		default:
			held := ex.heldNow()
			if d := gauges.delta(); d.inflight > int64(w) || held > w {
				t.Fatalf("%d iterations in flight, %d invocations held, window %d", d.inflight, held, w)
			}
			if g := runtime.NumGoroutine(); g > peakGoroutines {
				peakGoroutines = g
			}
			if held > 0 {
				rounds++
				ex.release(nil)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if rounds < n/w {
		t.Fatalf("%d releases emptied a window that never held more than %d: n=%d", rounds, w, n)
	}
	if peakGoroutines > base+8 {
		t.Fatalf("%d goroutines mid-run (%d before it)", peakGoroutines, base)
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
	if d := gauges.delta(); d.inflight != 0 || d.parked != 0 || d.unbounded != 0 {
		t.Fatalf("after the run: %+v", d)
	}
}

// TestNestedWindowedLoops: an inner loop parked for credits does not stop the
// outer walk, an outer iteration stays in flight while its inner loop does,
// and the inner loop's private array retires element by element.
func TestNestedWindowedLoops(t *testing.T) {
	const w, n, m = 4, 20, 20
	src := hazardApps + `
int m = toInt(arg("m", "4"));
file u[] <"u_%d">;
foreach i in [0:n-1] {
    file tmp[];
    foreach j in [0:m-1] {
        tmp[j] = f(i * 1000 + j);
        u[i * 1000 + j] = g2(tmp[j], j);
    }
}
trace("walked");`
	for line, reason := range compileLoops(t, src) {
		if reason != "" {
			t.Fatalf("line %d classified unbounded: %s", line, reason)
		}
	}
	setForeachHook(t, w, false)
	ex := newHeldExecutor("f")
	out := newTraceSignal("walked")
	gauges := foreachGauges()
	errc := startRun(context.Background(), t, src, Config{
		Executor: ex, Stdout: out, Args: map[string]string{"n": fmt.Sprint(n), "m": fmt.Sprint(m)},
	})
	// The root block ends with W outer iterations walked, each of which got
	// past its inner loop with W of that loop's iterations walked.
	awaitChan(t, out.ch, "the root walk to end")
	if d := gauges.delta(); d.inflight != w+w*w || d.parked != 1+w || ex.heldNow() != w*w {
		t.Fatalf("after the root walk: %+v, %d invocations held; want %d in flight, %d loops parked, %d held",
			d, ex.heldNow(), w+w*w, 1+w, w*w)
	}
	var err error
	for done := false; !done; {
		select {
		case err = <-errc:
			done = true
		default:
			if d := gauges.delta(); d.inflight > w+w*w {
				t.Fatalf("%d iterations in flight, want at most %d", d.inflight, w+w*w)
			}
			ex.release(nil)
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ex.calls); got != 2*n*m {
		t.Fatalf("%d distinct invocations, want %d", got, 2*n*m)
	}
	for cmd, times := range ex.calls {
		if times != 1 {
			t.Fatalf("%q ran %d times", cmd, times)
		}
	}
	if d := gauges.delta(); d.inflight != 0 || d.parked != 0 {
		t.Fatalf("after the run: %+v", d)
	}
}

// TestParkedForeachEndsWithTheRun: a loop waiting for credits when the run is
// cancelled, or when a statement fails, goes with the parked statements — the
// run returns at once, says why, and leaves no goroutine and no gauge behind.
func TestParkedForeachEndsWithTheRun(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		name string
		end  func(cancel context.CancelFunc, ex *heldExecutor)
		want []string
	}{
		{"cancel", func(cancel context.CancelFunc, _ *heldExecutor) { cancel() },
			[]string{"dataflow: waiting for raw[", context.Canceled.Error()}},
		{"failure", func(_ context.CancelFunc, ex *heldExecutor) {
			ex.mu.Lock()
			c := ex.held[0]
			ex.held = ex.held[1:]
			ex.mu.Unlock()
			c.done(errors.New("node fell over"))
		}, []string{"app mkinput", "node fell over"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := int(foreachWindow(nil))
			ex := newHeldExecutor("mkinput")
			base, gauges, susp0 := runtime.NumGoroutine(), foreachGauges(), swiftSuspended.Value()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := startRun(ctx, t, chainSrc, Config{Executor: ex, Args: map[string]string{"n": fmt.Sprint(n)}})
			eventually(t, "the loop to park", func() bool { return gauges.delta().parked == 1 })
			if d := gauges.delta(); d.inflight != int64(w) || swiftSuspended.Value()-susp0 != int64(w) {
				t.Fatalf("parked with %+v and %d statements suspended, want %d of each", d, swiftSuspended.Value()-susp0, w)
			}
			tc.end(cancel, ex)
			var err error
			select {
			case err = <-errc:
			case <-time.After(5 * time.Second):
				t.Fatal("the run did not return")
			}
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error %v does not mention %q", err, want)
				}
			}
			if d := gauges.delta(); d.inflight != 0 || d.parked != 0 || swiftSuspended.Value() != susp0 {
				t.Fatalf("after the run: %+v, suspended gauge moved by %d", d, swiftSuspended.Value()-susp0)
			}
			eventually(t, "the run's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
			// Late completions find nothing to continue.
			ex.release(nil)
			if got := len(ex.calls); got != w {
				t.Fatalf("%d invocations, want only the first window's %d", got, w)
			}
			if d := gauges.delta(); d.inflight != 0 || d.parked != 0 {
				t.Fatalf("late completions moved the gauges: %+v", d)
			}
		})
	}
}

// arrayLen reads the size of a root-level array of a run.
func arrayLen(t *testing.T, rt *crt, name string) int {
	t.Helper()
	for i, sb := range rt.prog.root.slots {
		if sb.name == name && sb.kind == kArr {
			return rt.root.slots[i].arr.Len()
		}
	}
	t.Fatalf("no root array %q", name)
	return 0
}

// TestPrivateElementsRetire: arrays only their own iteration can reach lose
// an element when it retires; an array something else reads keeps them all.
func TestPrivateElementsRetire(t *testing.T) {
	const w = 16
	setForeachHook(t, w, false)

	t.Run("chain", func(t *testing.T) {
		const n = 20 * w
		ex := newHeldExecutor("mkinput")
		rt, err := Compile(mustParse(t, chainSrc)).newRun(context.Background(), Config{
			Executor: ex, WorkDir: t.TempDir(), Args: map[string]string{"n": fmt.Sprint(n)},
		})
		if err != nil {
			t.Fatal(err)
		}
		gauges := foreachGauges()
		errc := make(chan error, 1)
		go func() { errc <- rt.run() }()
		for done := false; !done; {
			select {
			case err := <-errc:
				if err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				// Sizes are read with completions withheld, so no element is
				// between its creation and its iteration's retirement.
				if raw, cooked := arrayLen(t, rt, "raw"), arrayLen(t, rt, "cooked"); raw > w || cooked > w {
					t.Fatalf("raw holds %d elements and cooked %d, window %d", raw, cooked, w)
				}
				ex.release(nil)
				time.Sleep(100 * time.Microsecond)
			}
		}
		if raw, cooked := arrayLen(t, rt, "raw"), arrayLen(t, rt, "cooked"); raw != 0 || cooked != 0 {
			t.Fatalf("after the run raw holds %d elements and cooked %d", raw, cooked)
		}
		if got := len(ex.calls); got != 2*n {
			t.Fatalf("%d distinct invocations, want %d", got, 2*n)
		}
		if d := gauges.delta(); d.inflight != 0 || d.parked != 0 {
			t.Fatalf("after the run: %+v", d)
		}
	})

	t.Run("pipeline", func(t *testing.T) {
		const n = 3 * w
		ex := newHeldExecutor()
		rt, err := Compile(mustParse(t, loadScript(t, "pipeline.swift"))).newRun(context.Background(), Config{
			Executor: ex, WorkDir: t.TempDir(), Stdout: &bytes.Buffer{}, Args: map[string]string{"n": fmt.Sprint(n)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.run(); err != nil {
			t.Fatal(err)
		}
		// cooked[0] and cooked[n-1] are read after the loop: cooked keeps
		// every element, raw none.
		if raw, cooked := arrayLen(t, rt, "raw"), arrayLen(t, rt, "cooked"); raw != 0 || cooked != n {
			t.Fatalf("raw holds %d elements and cooked %d, want 0 and %d", raw, cooked, n)
		}
		want := fmt.Sprintf("combine cooked_0.file cooked_%d.file", n-1)
		if got := ex.count(want); got != 1 {
			t.Fatalf("%q ran %d times, want once; calls: %d", want, got, len(ex.calls))
		}
	})
}

// TestForeachMetricsScrape reads the loop series the way an operator would.
func TestForeachMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	scrape := scraper(t, reg)
	const w, n = 32, 200
	setForeachHook(t, w, false)
	inflight0, parked0 := scrape("swift_foreach_iterations_inflight"), scrape("swift_foreach_loops_parked")
	unbounded0 := scrape("swift_foreach_unbounded_total")
	ex := newHeldExecutor("mkinput")
	errc := startRun(context.Background(), t, chainSrc, Config{Executor: ex, Args: map[string]string{"n": fmt.Sprint(n)}})
	eventually(t, "the loop to park", func() bool { return scrape("swift_foreach_loops_parked")-parked0 >= 1 })
	if got := scrape("swift_foreach_iterations_inflight") - inflight0; got < 1 || got > w {
		t.Fatalf("mid-run swift_foreach_iterations_inflight moved by %d, want 1..%d", got, w)
	}
	for done := false; !done; {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			ex.release(nil)
			time.Sleep(100 * time.Microsecond)
		}
	}
	if a, b := scrape("swift_foreach_iterations_inflight")-inflight0, scrape("swift_foreach_loops_parked")-parked0; a != 0 || b != 0 {
		t.Fatalf("at exit in-flight moved by %d and parked by %d, want 0 and 0", a, b)
	}
	if got := scrape("swift_foreach_unbounded_total") - unbounded0; got != 0 {
		t.Fatalf("a windowable loop moved swift_foreach_unbounded_total by %d", got)
	}
	// fig17: the init loop is windowable; the round loop and, once per round,
	// the replica loop inside it are not.
	fex := NewFuncExecutor()
	for _, cmd := range []string{"namd", "exchange"} {
		fex.Register(cmd, func(context.Context, AppInvocation) error { return nil })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunScript(ctx, loadScript(t, "fig17.swift"), Config{
		Executor: fex, WorkDir: t.TempDir(), Args: map[string]string{"nreps": fmt.Sprint(4 * w), "rounds": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape("swift_foreach_unbounded_total") - unbounded0; got != 1+3 {
		t.Fatalf("fig17 moved swift_foreach_unbounded_total by %d, want 4", got)
	}
}

// TestFig17BeyondTheWindow runs the in-repo counterexample with four windows'
// worth of replicas: on odd rounds replica 0 waits for the last one.
func TestFig17BeyondTheWindow(t *testing.T) {
	run := func(limit time.Duration) (int, error) {
		fex := NewFuncExecutor()
		for _, cmd := range []string{"namd", "exchange"} {
			fex.Register(cmd, func(context.Context, AppInvocation) error { return nil })
		}
		ctx, cancel := context.WithTimeout(context.Background(), limit)
		defer cancel()
		err := RunScript(ctx, loadScript(t, "fig17.swift"), Config{
			Executor: fex, WorkDir: t.TempDir(), Args: map[string]string{"nreps": "64", "rounds": "3"},
		})
		return len(fex.Calls()), err
	}
	setForeachHook(t, 16, false)
	calls, err := run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := 64 + 3*(32+64); calls != want {
		t.Fatalf("%d invocations, want %d", calls, want)
	}
	// Only replica 0 waits for a later iteration, so windowed regardless the
	// loop still gets there on any window that leaves room for a second
	// iteration; a window of one is stuck behind replica 0.
	setForeachHook(t, 1, true)
	if _, err := run(300 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced windowable, the run returned %v, want a deadlock cut short by the deadline", err)
	}
}
