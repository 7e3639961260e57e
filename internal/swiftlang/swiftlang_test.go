package swiftlang

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func runScript(t *testing.T, src string, exec Executor) *bytes.Buffer {
	t.Helper()
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunScript(ctx, src, Config{Executor: exec, Stdout: &out, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	return &out
}

// ---------------------------------------------------------------------------
// Lexer

func TestLexerBasics(t *testing.T) {
	toks, err := newLexer(`int x = 3; // comment
# hash comment
/* block
comment */ string s = "a\nb";`).lex()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind != tokEOF {
			texts = append(texts, tok.text)
		}
	}
	want := []string{"int", "x", "=", "3", ";", "string", "s", "=", "a\nb", ";"}
	if len(texts) != len(want) {
		t.Fatalf("got %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("tok %d: %q want %q", i, texts[i], want[i])
		}
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := newLexer(`a %% b == c != d <= e >= f && g || h`).lex()
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.kind == tokPunct {
			ops = append(ops, tok.text)
		}
	}
	want := []string{"%%", "==", "!=", "<=", ">=", "&&", "||"}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops=%v", ops)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* open", `"bad \q escape"`, "`"} {
		if _, err := newLexer(src).lex(); err == nil {
			t.Errorf("lexed %q", src)
		}
	}
}

func TestLexerFloatVsMember(t *testing.T) {
	toks, _ := newLexer("3.25 4").lex()
	if toks[0].kind != tokFloat || toks[0].text != "3.25" {
		t.Fatalf("got %v", toks[0])
	}
	if toks[1].kind != tokInt {
		t.Fatalf("got %v", toks[1])
	}
}

// ---------------------------------------------------------------------------
// Parser

func TestParseAppDecl(t *testing.T) {
	p := mustParse(t, `
type file;
app (file o) simulate (int steps, file input) mpi 4 {
    "namd2" "-steps" steps "-in" @input stdout=@o;
}
`)
	app := p.Apps["simulate"]
	if app == nil {
		t.Fatal("app missing")
	}
	if len(app.Outs) != 1 || app.Outs[0].Type != TFile {
		t.Fatalf("outs %+v", app.Outs)
	}
	if len(app.Ins) != 2 || app.Ins[0].Type != TInt || app.Ins[1].Type != TFile {
		t.Fatalf("ins %+v", app.Ins)
	}
	if app.MPI == nil {
		t.Fatal("mpi size missing")
	}
	if len(app.Tokens) != 6 {
		t.Fatalf("tokens %d", len(app.Tokens))
	}
	if app.Tokens[4].FileOf == nil {
		t.Fatal("@input not parsed as file reference")
	}
	if app.Tokens[5].StdoutOf == nil {
		t.Fatal("stdout redirect not parsed")
	}
}

func TestParseStatements(t *testing.T) {
	p := mustParse(t, `
int n = 4;
file f <"out.txt">;
file c[] <"c_%d.dat">;
if (n %% 2 == 0) { trace("even"); } else { trace("odd"); }
foreach i in [0:n] { trace(i); }
(a, b) = twoOut(n);
app (file x, file y) twoOut (int k) { "cmd" k; }
`)
	if len(p.Stmts) != 6 {
		t.Fatalf("stmts=%d", len(p.Stmts))
	}
	if _, ok := p.Stmts[2].(*VarDecl); !ok {
		t.Fatalf("stmt2 %T", p.Stmts[2])
	}
	fe, ok := p.Stmts[4].(*Foreach)
	if !ok || fe.RangeLo == nil {
		t.Fatalf("stmt4 %T", p.Stmts[4])
	}
	as, ok := p.Stmts[5].(*Assign)
	if !ok || len(as.Targets) != 2 {
		t.Fatalf("stmt5 %T %+v", p.Stmts[5], as)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`int;`,
		`app (file o) f (int x) { }`, // empty command
		`app (file o) f (int x) { "cmd"`,
		`foreach i [0:3] { }`,
		`if n > 2 { }`,
		`x = ;`,
		`unknowntype y;`,
		`app (file o) f () { "c"; } app (file o) f () { "c"; }`, // dup
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed %q", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	p := mustParse(t, `int x = 1 + 2 * 3;`)
	d := p.Stmts[0].(*VarDecl)
	b := d.Init.(*Binary)
	if b.Op != "+" {
		t.Fatalf("top op %s", b.Op)
	}
	if inner := b.R.(*Binary); inner.Op != "*" {
		t.Fatalf("inner op %s", inner.Op)
	}
}

// ---------------------------------------------------------------------------
// Interpreter

func TestTraceAndArithmetic(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
int a = 6;
int b = a * 7;
trace("answer", b);
trace("mod", b %% 5);
trace("str", strcat("x=", a));
float f = 1.5 + a;
trace("float", f);
trace("cmp", a < b, a == 6, !false);
`, exec)
	for _, want := range []string{"answer 42", "mod 2", "str x=6", "float 7.5", "cmp true true true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestDataflowOrderIndependence(t *testing.T) {
	// b is used before (textually) it is produced: dataflow must resolve it.
	exec := NewFuncExecutor()
	out := runScript(t, `
int a;
trace("got", a + 1);
a = 41;
`, exec)
	if !strings.Contains(out.String(), "got 42") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestForeachRangeInclusive(t *testing.T) {
	exec := NewFuncExecutor()
	var n atomic.Int64
	exec.Register("tick", func(ctx context.Context, inv AppInvocation) error {
		n.Add(1)
		return nil
	})
	runScript(t, `
app () tick (int i) { "tick" i; }
foreach i in [0:4] { tick(i); }
`, exec)
	if n.Load() != 5 {
		t.Fatalf("ticks=%d (range should be inclusive)", n.Load())
	}
}

func TestForeachIndexVar(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
foreach v, i in [10:12] { trace(v, i); }
`, exec)
	for _, want := range []string{"10 0", "11 1", "12 2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q: %s", want, out.String())
		}
	}
}

func TestIfParityWithModulus(t *testing.T) {
	exec := NewFuncExecutor()
	out := runScript(t, `
foreach j in [0:3] {
    if (j %% 2 == 0) { trace("even", j); } else { trace("odd", j); }
}
`, exec)
	for _, want := range []string{"even 0", "odd 1", "even 2", "odd 3"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestArrayDataflowAcrossIterations(t *testing.T) {
	// Classic Swift pipeline: a[i] depends on a[i-1]; iterations are
	// submitted concurrently and sequenced purely by dataflow.
	exec := NewFuncExecutor()
	out := runScript(t, `
int a[];
a[0] = 1;
foreach i in [1:6] {
    a[i] = a[i-1] * 2;
}
trace("last", a[6]);
`, exec)
	if !strings.Contains(out.String(), "last 64") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestAppCallWithFiles(t *testing.T) {
	exec := NewFuncExecutor()
	var got AppInvocation
	var mu sync.Mutex
	exec.Register("gen", func(ctx context.Context, inv AppInvocation) error {
		mu.Lock()
		got = inv
		mu.Unlock()
		return nil
	})
	exec.Register("consume", func(ctx context.Context, inv AppInvocation) error { return nil })
	runScript(t, `
app (file o) gen (int n) { "gen" n stdout=@o; }
app () consume (file x) { "consume" @x; }
file f <"data/out.bin">;
f = gen(9);
consume(f);
`, exec)
	mu.Lock()
	defer mu.Unlock()
	if got.StdoutFile != "data/out.bin" {
		t.Fatalf("stdout=%q", got.StdoutFile)
	}
	if len(got.OutFiles) != 1 || got.OutFiles[0] != "data/out.bin" {
		t.Fatalf("outfiles=%v", got.OutFiles)
	}
	calls := exec.Calls()
	if len(calls) != 2 {
		t.Fatalf("calls=%d", len(calls))
	}
	// consume must run after gen (dataflow), and see the file path.
	if calls[0].App != "gen" || calls[1].App != "consume" {
		t.Fatalf("order %v, %v", calls[0].App, calls[1].App)
	}
	if calls[1].Tokens[1] != "data/out.bin" {
		t.Fatalf("consume tokens %v", calls[1].Tokens)
	}
}

func TestMPISizeFromParameter(t *testing.T) {
	exec := NewFuncExecutor()
	var sizes []int
	var mu sync.Mutex
	exec.Register("sim", func(ctx context.Context, inv AppInvocation) error {
		mu.Lock()
		sizes = append(sizes, inv.NProcs)
		mu.Unlock()
		return nil
	})
	runScript(t, `
app () sim (int n) mpi n*2 { "sim" n; }
sim(3);
`, exec)
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 6 {
		t.Fatalf("sizes=%v", sizes)
	}
}

func TestTupleAssignFromApp(t *testing.T) {
	exec := NewFuncExecutor()
	exec.Register("two", func(ctx context.Context, inv AppInvocation) error { return nil })
	out := runScript(t, `
app (file a, file b) two (int n) { "two" n; }
file x <"xa">;
file y <"yb">;
(x, y) = two(1);
trace("paths", @x, @y);
`, exec)
	if !strings.Contains(out.String(), "paths xa yb") {
		t.Fatalf("out=%s", out.String())
	}
}

func TestFileArrayPattern(t *testing.T) {
	exec := NewFuncExecutor()
	var mu sync.Mutex
	var produced []string
	exec.Register("mk", func(ctx context.Context, inv AppInvocation) error {
		mu.Lock()
		produced = append(produced, inv.OutFiles[0])
		mu.Unlock()
		return nil
	})
	runScript(t, `
app (file o) mk (int i) { "mk" i; }
file c[] <"seg_%d.dat">;
foreach i in [0:2] {
    c[i] = mk(i);
}
`, exec)
	mu.Lock()
	defer mu.Unlock()
	if len(produced) != 3 {
		t.Fatalf("produced=%v", produced)
	}
	want := map[string]bool{"seg_0.dat": true, "seg_1.dat": true, "seg_2.dat": true}
	for _, p := range produced {
		if !want[p] {
			t.Fatalf("unexpected path %q in %v", p, produced)
		}
	}
}

// TestREMCoreLoop runs a reduced Fig.-17-style REM dataflow: segments per
// replica chained by files, alternating-parity exchanges gating the next
// segment.
func TestREMCoreLoop(t *testing.T) {
	exec := NewFuncExecutor()
	var mu sync.Mutex
	order := []string{}
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	exec.Register("namd", func(ctx context.Context, inv AppInvocation) error {
		log("namd " + strings.Join(inv.Tokens[1:], ","))
		return nil
	})
	exec.Register("exchange", func(ctx context.Context, inv AppInvocation) error {
		log("exchange " + strings.Join(inv.Tokens[1:], ","))
		return nil
	})
	src := `
int nreps = 4;
int rounds = 2;
app (file co) namd (int rep, int seg, file ci) mpi 2 { "namd" rep seg @ci; }
app (file xo) exchange (file a, file b) { "exchange" @a @b; }

file c[] <"c_%d.file">;
file x[] <"x_%d.file">;

# initial conditions: segment index = rep*10 + round
foreach r in [0:nreps-1] {
    c[r*10] = namd(r, 0, init);
}
file init <"init.file">;
init = seed();
app (file o) seed () { "namd" 99 99 "none"; }

foreach r in [0:nreps-1] {
    foreach j in [1:rounds] {
        # exchange between r and its parity partner gates this segment
        if (r %% 2 == 0) {
            x[(j-1)*100+r] = exchange(c[r*10+j-1], c[(r+1)*10+j-1]);
        }
        c[r*10+j] = namd(r, j, xfile(r, j));
    }
}
app (file o) xfile (int r, int j) { "namd" r j "noop"; }
`
	// The above uses an app as a helper; simplify: direct dependency via x
	// array instead. Use a cleaner equivalent script.
	src = `
int nreps = 4;
app (file co) namd (int rep, int seg, file ci) mpi 2 { "namd" rep seg @ci; }
app (file xo) exchange (file a, file b) { "exchange" @a @b; }

file c[] <"c_%d.file">;
file x[] <"x_%d.file">;
file init <"init.file">;
init = seedapp();
app (file o) seedapp () { "namd" 99 99 "seed"; }

foreach r in [0:nreps-1] {
    c[r*10] = namd(r, 0, init);
}
foreach r in [0:nreps-1] {
    if (r %% 2 == 0) {
        x[r] = exchange(c[r*10], c[(r+1)*10]);
        c[r*10+1] = namd(r, 1, x[r]);
        c[(r+1)*10+1] = namd(r+1, 1, x[r]);
    }
}
trace("done", @c[1], @c[11], @c[21], @c[31]);
`
	_ = src
	out := runScript(t, src, exec)
	if !strings.Contains(out.String(), "done") {
		t.Fatalf("out=%s", out.String())
	}
	mu.Lock()
	defer mu.Unlock()
	// 1 seed + 4 segment-0 + 2 exchanges + 4 segment-1 = 11 operations.
	if len(order) != 11 {
		t.Fatalf("ops=%d: %v", len(order), order)
	}
	// Every exchange must appear after both partner segment-0 runs and
	// before the dependent segment-1 runs.
	pos := map[string]int{}
	for i, s := range order {
		pos[s] = i
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		ex := fmt.Sprintf("exchange c_%d.file,c_%d.file", pair[0]*10, pair[1]*10)
		if _, ok := pos[ex]; !ok {
			t.Fatalf("missing %q in %v", ex, order)
		}
		seg0a := fmt.Sprintf("namd %d,0,init.file", pair[0])
		seg0b := fmt.Sprintf("namd %d,0,init.file", pair[1])
		if pos[ex] < pos[seg0a] || pos[ex] < pos[seg0b] {
			t.Fatalf("exchange ran before inputs: %v", order)
		}
		seg1 := fmt.Sprintf("namd %d,1,x_%d.file", pair[0], pair[0])
		if pos[seg1] < pos[ex] {
			t.Fatalf("segment 1 ran before exchange: %v", order)
		}
	}
}

func TestArgBuiltin(t *testing.T) {
	exec := NewFuncExecutor()
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunScript(ctx, `
trace("steps", toInt(arg("steps")));
trace("mode", arg("mode", "fast"));
`, Config{Executor: exec, Stdout: &out, WorkDir: t.TempDir(),
		Args: map[string]string{"steps": "25"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "steps 25") || !strings.Contains(out.String(), "mode fast") {
		t.Fatalf("out=%s", out.String())
	}
	// Missing required argument errors.
	err = RunScript(ctx, `trace(arg("absent"));`, Config{Executor: exec, WorkDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "absent") {
		t.Fatalf("err=%v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	exec := NewFuncExecutor()
	cases := []string{
		`trace(undeclared);`,
		`int x = 1 / 0;`,
		`int x = 5 %% 0;`,
		`int a[]; trace(a);`,
		`int x; x = 1; x = 2;`,
		`if (3) { trace("x"); }`,
		`foreach i in [0:"x"] { }`,
		`unknownfn(3);`,
		`app () f (int n) { "missing" n; } f(1);`, // no registered function
	}
	for _, src := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := RunScript(ctx, src, Config{Executor: exec, WorkDir: t.TempDir()})
		cancel()
		if err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestAppFailurePropagates(t *testing.T) {
	exec := NewFuncExecutor()
	boom := errors.New("task exploded")
	exec.Register("bad", func(ctx context.Context, inv AppInvocation) error { return boom })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := RunScript(ctx, `
app () bad () { "bad"; }
bad();
`, Config{Executor: exec, WorkDir: t.TempDir()})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestDeadlockDetectedByTimeout(t *testing.T) {
	// x depends on itself through y: no execution order exists. The engine
	// must fail via the context rather than hang forever.
	exec := NewFuncExecutor()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := RunScript(ctx, `
int x;
int y;
x = y + 1;
y = x + 1;
`, Config{Executor: exec, WorkDir: t.TempDir()})
	if err == nil {
		t.Fatal("circular dependency not detected")
	}
	// Both statements are parked, not blocked in Get; the error must still say
	// what the script was waiting for and why the wait ended.
	msg := err.Error()
	if !strings.Contains(msg, "dataflow: waiting for x: ") && !strings.Contains(msg, "dataflow: waiting for y: ") {
		t.Fatalf("error %q does not name the awaited variable", msg)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %q does not carry the context's error", msg)
	}
}

func TestConcurrencyActuallyParallel(t *testing.T) {
	// Two independent 100ms apps must overlap: total << 200ms serial time.
	exec := NewFuncExecutor()
	var running, peak atomic.Int64
	exec.Register("slow", func(ctx context.Context, inv AppInvocation) error {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
		running.Add(-1)
		return nil
	})
	runScript(t, `
app () slow (int i) { "slow" i; }
foreach i in [0:3] { slow(i); }
`, exec)
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d; statements did not overlap", peak.Load())
	}
}
