package swiftlang

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"

	"jets/internal/dataflow"
)

// FileVal is the runtime value of a file variable: a handle to a concrete
// path. The variable's future being set means the file has been produced.
type FileVal struct {
	Path string
}

// AppInvocation is one resolved app execution handed to the Executor.
type AppInvocation struct {
	App        string
	NProcs     int // 0 => sequential
	Tokens     []string
	StdoutFile string
	OutFiles   []string
}

// Executor runs app invocations; implementations submit to JETS
// (JETSExecutor) or to in-process functions for tests.
type Executor interface {
	Execute(ctx context.Context, inv AppInvocation) error
}

// Config parameterizes a script run.
type Config struct {
	Executor Executor
	// WorkDir holds automatically mapped files; default "swift-work".
	WorkDir string
	// Stdout receives trace() output; nil discards it.
	Stdout io.Writer
	// Args are named script arguments available through the arg() builtin
	// (Swift's @arg), e.g. swiftrun -arg steps=10.
	Args map[string]string
}

// Run compiles a parsed program to a static dataflow graph (constant
// folding, slot-resolved variables, batched submission), executes it to
// completion under dataflow semantics and returns the first error.
func Run(ctx context.Context, prog *Program, cfg Config) error {
	return Compile(prog).Run(ctx, cfg)
}

// Interpret executes a parsed program with the tree-walking interpreter. It
// is the reference the compiled path is differential-tested against
// (equivalence_test.go) and benchmarked against; nothing else calls it.
func Interpret(ctx context.Context, prog *Program, cfg Config) error {
	if cfg.Executor == nil {
		return fmt.Errorf("swift: no executor configured")
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "swift-work"
	}
	in := &interp{prog: prog, cfg: cfg, eng: dataflow.NewEngine(ctx)}
	in.host.stdout = cfg.Stdout
	in.host.args = cfg.Args
	root := newEnv(nil)
	in.root = root
	in.execBlock(root, prog.Stmts)
	return in.eng.Wait()
}

// RunScript parses, compiles and runs a script source.
func RunScript(ctx context.Context, src string, cfg Config) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return Run(ctx, prog, cfg)
}

// RuntimeError is an execution failure with script position when known.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("swift: line %d: %s", e.Line, e.Msg)
	}
	return "swift: " + e.Msg
}

func rtErrf(line int, format string, args ...interface{}) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Environment

// slot is one declared variable.
type slot struct {
	typ     Type
	isArray bool
	fut     *dataflow.Future // scalars
	arr     *dataflow.Array  // arrays
	// For file variables, the concrete path (or %d pattern for arrays)
	// resolves asynchronously from the mapper expression.
	pathFut *dataflow.Future
}

type env struct {
	parent *env
	mu     sync.Mutex
	vars   map[string]*slot
}

func newEnv(parent *env) *env {
	return &env{parent: parent, vars: map[string]*slot{}}
}

func (e *env) lookup(name string) *slot {
	for s := e; s != nil; s = s.parent {
		s.mu.Lock()
		v, ok := s.vars[name]
		s.mu.Unlock()
		if ok {
			return v
		}
	}
	return nil
}

func (e *env) declare(name string, s *slot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.vars[name]; dup {
		return fmt.Errorf("swift: duplicate declaration of %q", name)
	}
	e.vars[name] = s
	return nil
}

// ---------------------------------------------------------------------------
// Interpreter

type interp struct {
	prog *Program
	cfg  Config
	eng  *dataflow.Engine
	root *env // global scope, visible from app bodies
	seq  atomic.Int64
	host builtinHost
}

func (in *interp) nextSeq() int64 { return in.seq.Add(1) }

// execBlock registers declarations synchronously (so later statements can
// reference them) and launches every statement concurrently.
func (in *interp) execBlock(ev *env, stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *VarDecl:
			sl, err := in.declare(ev, st)
			if err != nil {
				in.eng.Go(func(context.Context) error { return err })
				continue
			}
			in.eng.Go(func(ctx context.Context) error { return in.initDecl(ctx, ev, st, sl) })
		case *Assign:
			in.eng.Go(func(ctx context.Context) error { return in.execAssign(ctx, ev, st) })
		case *If:
			in.eng.Go(func(ctx context.Context) error { return in.execIf(ctx, ev, st) })
		case *Foreach:
			in.eng.Go(func(ctx context.Context) error { return in.execForeach(ctx, ev, st) })
		case *ExprStmt:
			in.eng.Go(func(ctx context.Context) error {
				_, err := in.evalCallOrExpr(ctx, ev, st.X, nil, st.Line)
				return err
			})
		default:
			in.eng.Go(func(context.Context) error {
				return fmt.Errorf("swift: unknown statement %T", s)
			})
		}
	}
}

func (in *interp) declare(ev *env, d *VarDecl) (*slot, error) {
	sl := &slot{typ: d.Type, isArray: d.IsArray}
	if d.IsArray {
		sl.arr = dataflow.NewArray(d.Name)
	} else {
		sl.fut = dataflow.NewFuture(d.Name)
	}
	if d.Type == TFile {
		sl.pathFut = dataflow.NewFuture(d.Name + ".path")
		if d.Mapper == nil {
			// Auto-map into the work directory.
			if d.IsArray {
				sl.pathFut.Set(filepath.Join(in.cfg.WorkDir, fmt.Sprintf("%s_%d_%%d", d.Name, in.nextSeq())))
			} else {
				sl.pathFut.Set(filepath.Join(in.cfg.WorkDir, fmt.Sprintf("%s_%d", d.Name, in.nextSeq())))
			}
		}
	}
	if err := ev.declare(d.Name, sl); err != nil {
		return nil, rtErrf(d.Line, "%v", err)
	}
	return sl, nil
}

// initDecl resolves the mapper and runs the initializer.
func (in *interp) initDecl(ctx context.Context, ev *env, d *VarDecl, sl *slot) error {
	if d.Type == TFile && d.Mapper != nil {
		v, err := in.eval(ctx, ev, d.Mapper)
		if err != nil {
			return err
		}
		path, ok := v.(string)
		if !ok {
			return rtErrf(d.Line, "mapper for %s must be a string, got %T", d.Name, v)
		}
		if err := sl.pathFut.Set(path); err != nil {
			return err
		}
	}
	if d.Init == nil {
		return nil
	}
	if d.IsArray {
		return rtErrf(d.Line, "array %s cannot have a scalar initializer", d.Name)
	}
	target := LValue{Name: d.Name}
	return in.assignTo(ctx, ev, []LValue{target}, d.Init, d.Line)
}

func (in *interp) execAssign(ctx context.Context, ev *env, a *Assign) error {
	return in.assignTo(ctx, ev, a.Targets, a.RHS, a.Line)
}

// assignTo routes an assignment: app calls set their declared outputs; plain
// expressions set a single target.
func (in *interp) assignTo(ctx context.Context, ev *env, targets []LValue, rhs Expr, line int) error {
	if call, ok := rhs.(*Call); ok {
		if _, isApp := in.prog.Apps[call.Name]; isApp {
			return in.invokeApp(ctx, ev, call, targets, line)
		}
	}
	if len(targets) != 1 {
		return rtErrf(line, "tuple assignment requires an app call on the right-hand side")
	}
	v, err := in.eval(ctx, ev, rhs)
	if err != nil {
		return err
	}
	fut, err := in.resolveTarget(ctx, ev, targets[0], line)
	if err != nil {
		return err
	}
	return fut.Set(v)
}

// resolveTarget returns the future a target lvalue designates.
func (in *interp) resolveTarget(ctx context.Context, ev *env, lv LValue, line int) (*dataflow.Future, error) {
	sl := ev.lookup(lv.Name)
	if sl == nil {
		return nil, rtErrf(line, "undeclared variable %q", lv.Name)
	}
	if lv.Index == nil {
		if sl.isArray {
			return nil, rtErrf(line, "%s is an array; index it", lv.Name)
		}
		return sl.fut, nil
	}
	if !sl.isArray {
		return nil, rtErrf(line, "%s is not an array", lv.Name)
	}
	iv, err := in.eval(ctx, ev, lv.Index)
	if err != nil {
		return nil, err
	}
	i, ok := iv.(int64)
	if !ok {
		return nil, rtErrf(line, "array index must be int, got %T", iv)
	}
	return sl.arr.Elem(int(i)), nil
}

// targetFilePath resolves the concrete path of a file-typed target before
// its future is set (the executor needs it as the output location).
func (in *interp) targetFilePath(ctx context.Context, ev *env, lv LValue, line int) (string, *dataflow.Future, error) {
	sl := ev.lookup(lv.Name)
	if sl == nil {
		return "", nil, rtErrf(line, "undeclared variable %q", lv.Name)
	}
	if sl.typ != TFile {
		return "", nil, rtErrf(line, "app output %q must be a file", lv.Name)
	}
	pv, err := sl.pathFut.Get(ctx)
	if err != nil {
		return "", nil, err
	}
	pattern := pv.(string)
	if lv.Index == nil {
		if sl.isArray {
			return "", nil, rtErrf(line, "%s is a file array; index it", lv.Name)
		}
		return pattern, sl.fut, nil
	}
	iv, err := in.eval(ctx, ev, lv.Index)
	if err != nil {
		return "", nil, err
	}
	i, ok := iv.(int64)
	if !ok {
		return "", nil, rtErrf(line, "array index must be int, got %T", iv)
	}
	return fmt.Sprintf(pattern, i), sl.arr.Elem(int(i)), nil
}

func (in *interp) execIf(ctx context.Context, ev *env, s *If) error {
	cv, err := in.eval(ctx, ev, s.Cond)
	if err != nil {
		return err
	}
	b, ok := cv.(bool)
	if !ok {
		return rtErrf(s.Line, "if condition must be boolean, got %T", cv)
	}
	// Branch statements run under a child scope, concurrently; errors
	// propagate through the shared engine.
	if b {
		in.execBlock(newEnv(ev), s.Then)
	} else if s.Else != nil {
		in.execBlock(newEnv(ev), s.Else)
	}
	return nil
}

func (in *interp) execForeach(ctx context.Context, ev *env, s *Foreach) error {
	if s.Source != nil {
		return rtErrf(s.Line, "foreach over arrays is not supported; iterate a [lo:hi] range")
	}
	lov, err := in.eval(ctx, ev, s.RangeLo)
	if err != nil {
		return err
	}
	hiv, err := in.eval(ctx, ev, s.RangeHi)
	if err != nil {
		return err
	}
	lo, ok1 := lov.(int64)
	hi, ok2 := hiv.(int64)
	if !ok1 || !ok2 {
		return rtErrf(s.Line, "range bounds must be int, got %T and %T", lov, hiv)
	}
	// Swift ranges are inclusive: [0:2] is 0, 1, 2.
	for i := lo; i <= hi; i++ {
		iter := newEnv(ev)
		vslot := &slot{typ: TInt, fut: dataflow.NewFuture(s.Var)}
		vslot.fut.Set(i)
		if err := iter.declare(s.Var, vslot); err != nil {
			return rtErrf(s.Line, "%v", err)
		}
		if s.IndexVar != "" {
			islot := &slot{typ: TInt, fut: dataflow.NewFuture(s.IndexVar)}
			islot.fut.Set(i - lo)
			if err := iter.declare(s.IndexVar, islot); err != nil {
				return rtErrf(s.Line, "%v", err)
			}
		}
		in.execBlock(iter, s.Body)
	}
	return nil
}
