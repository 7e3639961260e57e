package swiftlang

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestElseIfChain(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
foreach x in [0:3] {
    if (x == 0) { trace("zero"); }
    else if (x == 1) { trace("one"); }
    else if (x == 2) { trace("two"); }
    else { trace("many", x); }
}
`, exec)
	for _, want := range []string{"zero", "one", "two", "many 3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in %q", want, out.String())
		}
	}
}

func TestEmptyRangeRunsNothing(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
foreach i in [5:2] { trace("never", i); }
trace("done");
`, exec)
	if strings.Contains(out.String(), "never") {
		t.Fatalf("empty range executed: %s", out.String())
	}
	if !strings.Contains(out.String(), "done") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestNestedForeachShadowing(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
int total[];
foreach i in [0:1] {
    foreach j in [0:1] {
        total[i*2+j] = i*10 + j;
    }
}
trace("vals", total[0], total[1], total[2], total[3]);
`, exec)
	if !strings.Contains(out.String(), "vals 0 1 10 11") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestLoopVariableRedeclarationRejected(t *testing.T) {
	exec := NewFuncExecutor()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunScript(ctx, `
foreach i in [0:2] {
    int i = 5;
    trace(i);
}
`, Config{Executor: exec, WorkDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err=%v", err)
	}
}

func TestStringEscapesAndConcat(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
string s = "a\tb" + "\n" + strcat("x", 1, true);
trace(s);
`, exec)
	if !strings.Contains(out.String(), "a\tb\nx1true") {
		t.Fatalf("out=%q", out.String())
	}
}

func TestFileOfInExpression(t *testing.T) {
	exec := NewFuncExecutor()
	exec.Register("mk", func(ctx context.Context, inv AppInvocation) error { return nil })
	out := runScript(t, `
app (file o) mk () { "mk"; }
file f <"alpha.dat">;
f = mk();
string backup = strcat(@f, ".bak");
trace("backup", backup);
trace("fn", filename(f));
`, exec)
	if !strings.Contains(out.String(), "backup alpha.dat.bak") {
		t.Fatalf("out=%s", out.String())
	}
	if !strings.Contains(out.String(), "fn alpha.dat") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestMapperFromExpression(t *testing.T) {
	exec := NewFuncExecutor()
	exec.Register("mk", func(ctx context.Context, inv AppInvocation) error { return nil })
	out := runScript(t, `
app (file o) mk () { "mk"; }
int run = 7;
file f <strcat("run-", run, ".out")>;
f = mk();
trace("path", @f);
`, exec)
	if !strings.Contains(out.String(), "path run-7.out") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestAutoMappedFilesUnique(t *testing.T) {
	exec := NewFuncExecutor()
	var paths []string
	exec.Register("mk", func(ctx context.Context, inv AppInvocation) error {
		paths = append(paths, inv.OutFiles[0])
		return nil
	})
	// Without explicit mappers, two file variables must not collide. The
	// sequential executor (FuncExecutor is called under dataflow but appends
	// under its own lock) collects both paths.
	runScript(t, `
app (file o) mk () { "mk"; }
file a;
file b;
a = mk();
b = mk();
trace("ok", @a, @b);
`, exec)
	calls := exec.Calls()
	if len(calls) != 2 {
		t.Fatalf("calls=%d", len(calls))
	}
	if calls[0].OutFiles[0] == calls[1].OutFiles[0] {
		t.Fatalf("auto paths collided: %v", calls[0].OutFiles)
	}
}

func TestUnaryMinusAndNot(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
int x = -3;
trace("neg", x, -x, -(1+2));
trace("not", !(x > 0));
float y = -1.5;
trace("negf", -y);
`, exec)
	for _, want := range []string{"neg -3 3 -3", "not true", "negf 1.5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in %s", want, out.String())
		}
	}
}

func TestAppArityMismatch(t *testing.T) {
	exec := NewFuncExecutor()
	exec.Register("f", func(ctx context.Context, inv AppInvocation) error { return nil })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, src := range []string{
		`app () f (int a) { "f" a; } f();`,      // too few args
		`app () f (int a) { "f" a; } f(1, 2);`,  // too many args
		`app (file o) f () { "f"; } f();`,       // outputs dropped
		`app () f () { "f"; } file x; x = f();`, // no outputs to assign
	} {
		if err := RunScript(ctx, src, Config{Executor: exec, WorkDir: t.TempDir()}); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestBooleanShortForms(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
boolean a = true;
bool b = false;
if (a && !b) { trace("logic ok"); }
`, exec)
	if !strings.Contains(out.String(), "logic ok") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestCommentsEverywhere(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
// line comment
# hash comment
/* block
   comment */ trace("survived"); // trailing
`, exec)
	if !strings.Contains(out.String(), "survived") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestDeepDependencyChain(t *testing.T) {
	// 200-element chain: every statement parks on its predecessor, and each
	// Set on the runner wakes the next — the ready list, not the stack, grows.
	exec := NewFuncExecutor()
	out := runScript(t, `
int a[];
a[0] = 0;
foreach i in [1:200] {
    a[i] = a[i-1] + 1;
}
trace("sum", a[200]);
`, exec)
	if !strings.Contains(out.String(), "sum 200") {
		t.Fatalf("out=%s", out.String())
	}
}
