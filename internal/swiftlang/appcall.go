package swiftlang

// Compiled app invocations. A call site lowers into two phases: phase A is
// pure — it evaluates arguments, resolves output paths, and builds the
// AppInvocation without any side effect, so a statement-position call whose
// argument is still unset is parked and phase A simply runs again when the
// runner retries it. Phase B hands the invocation to the async executor and
// returns immediately; the completion callback sets the output futures under
// an engine hold, replacing the interpreter's goroutine parked per app call.

import (
	"fmt"

	"jets/internal/dataflow"
)

const (
	tokExpr uint8 = iota
	tokFile
	tokStdout
)

type ctok struct {
	kind uint8
	fn   cval
}

// capp is a compiled app declaration, shared by every call site. The mpi and
// command-token expressions compile once against the app's parameter frame
// (whose parent is the global frame, matching the interpreter's appEnv).
type capp struct {
	decl      *AppDecl
	mpi       *cval
	tokens    []ctok
	effectful bool // mpi/token expressions can have effects
}

// fillApp compiles the app's body against the completed root scope.
func (c *compiler) fillApp(ca *capp, rootSc *cscope) {
	app := ca.decl
	bp := &blockBP{}
	sc := &cscope{parent: rootSc, vars: map[string]int{}, bp: bp}
	declare := func(p Param) {
		if _, dup := sc.vars[p.Name]; dup {
			return // first declaration wins; call sites raise the dup error
		}
		idx := len(bp.slots)
		bp.slots = append(bp.slots, slotBP{name: p.Name, typ: p.Type, kind: kImm})
		sc.vars[p.Name] = idx
	}
	for _, p := range app.Ins {
		declare(p)
	}
	for _, p := range app.Outs {
		declare(p)
	}
	if app.MPI != nil {
		mv := c.compileExpr(sc, app.MPI)
		ca.mpi = &mv
	}
	ca.tokens = make([]ctok, 0, len(app.Tokens))
	for _, tok := range app.Tokens {
		switch {
		case tok.StdoutOf != nil:
			ca.tokens = append(ca.tokens, ctok{kind: tokStdout, fn: c.compileExpr(sc, &FileOf{X: tok.StdoutOf})})
		case tok.FileOf != nil:
			ca.tokens = append(ca.tokens, ctok{kind: tokFile, fn: c.compileExpr(sc, &FileOf{X: tok.FileOf})})
		default:
			ca.tokens = append(ca.tokens, ctok{kind: tokExpr, fn: c.compileExpr(sc, tok.Expr)})
		}
	}
}

// cinArg is one compiled input binding. The error fields preserve the
// interpreter's exact check order: preErr before the argument evaluates,
// postErr (duplicate parameter) after.
type cinArg struct {
	preErr  error
	arg     cval
	isFile  bool
	pname   string
	postErr error
}

// coutArg is one compiled output binding.
type coutArg struct {
	preErr  error
	target  ctarget
	postErr error
}

// cAppCall is a fully lowered call site.
type cAppCall struct {
	app          *capp
	name         string
	line         int
	arityErr     error
	ins          []cinArg
	outs         []coutArg
	nIns, nOuts  int
	argsEffectul bool
}

// fast reports whether phase A is retry-safe: no effectful expression
// anywhere among arguments, target indices, mpi, or command tokens.
func (a *cAppCall) fast() bool {
	return !a.argsEffectul && !a.app.effectful
}

func (c *compiler) compileAppCall(sc *cscope, call *Call, targets []LValue, line int) *cAppCall {
	app := c.prog.Apps[call.Name]
	ac := &cAppCall{app: c.apps[call.Name], name: call.Name, line: line,
		nIns: len(app.Ins), nOuts: len(app.Outs)}
	if len(call.Args) != len(app.Ins) {
		ac.arityErr = rtErrf(line, "app %s takes %d arguments, got %d", app.Name, len(app.Ins), len(call.Args))
		return ac
	}
	if len(targets) != len(app.Outs) {
		ac.arityErr = rtErrf(line, "app %s produces %d outputs, assignment has %d targets", app.Name, len(app.Outs), len(targets))
		return ac
	}
	seen := map[string]bool{}
	ac.ins = make([]cinArg, len(app.Ins))
	for i, p := range app.Ins {
		ia := &ac.ins[i]
		ia.pname = p.Name
		if p.IsArray {
			ia.preErr = rtErrf(line, "app %s: array parameters are not supported", app.Name)
		}
		ia.arg = c.compileExpr(sc, call.Args[i])
		ac.argsEffectul = ac.argsEffectul || ia.arg.effectful
		ia.isFile = p.Type == TFile
		if seen[p.Name] {
			ia.postErr = rtErrf(line, "swift: duplicate declaration of %q", p.Name)
		}
		seen[p.Name] = true
	}
	ac.outs = make([]coutArg, len(app.Outs))
	for i, p := range app.Outs {
		oa := &ac.outs[i]
		if p.Type != TFile {
			oa.preErr = rtErrf(line, "app %s: output %s must be a file", app.Name, p.Name)
		}
		oa.target = c.compileFileTarget(sc, targets[i], line)
		ac.argsEffectul = ac.argsEffectul || oa.target.effectful
		if seen[p.Name] {
			oa.postErr = rtErrf(line, "swift: duplicate declaration of %q", p.Name)
		}
		seen[p.Name] = true
	}
	return ac
}

// compileFileTarget mirrors the interpreter's targetFilePath: the target
// must be a declared file variable; its concrete path (resolved at run time
// from the slot's mapper) is the executor's output location.
func (c *compiler) compileFileTarget(sc *cscope, lv LValue, line int) ctarget {
	scope, idx, depth := sc.resolve(lv.Name)
	if scope == nil {
		return ctarget{err: rtErrf(line, "undeclared variable %q", lv.Name)}
	}
	sb := &scope.bp.slots[idx]
	if sb.typ != TFile {
		return ctarget{err: rtErrf(line, "app output %q must be a file", lv.Name)}
	}
	t := ctarget{name: lv.Name, depth: depth, idx: idx, line: line}
	if lv.Index == nil {
		if sb.kind == kArr {
			t.err = rtErrf(line, "%s is a file array; index it", lv.Name)
		}
		return t
	}
	if sb.kind != kArr {
		t.err = rtErrf(line, "%s is not an array", lv.Name)
		return t
	}
	iv := c.compileExpr(sc, lv.Index)
	t.indexFn = iv.fn
	t.effectful = iv.effectful
	return t
}

// resolveFile returns the concrete output path and the future set on
// completion.
func (t *ctarget) resolveFile(fr *frame, ec *ectx) (string, *dataflow.Future, error) {
	if t.err != nil {
		return "", nil, t.err
	}
	rs := &frameAt(fr, t.depth).slots[t.idx]
	pattern, err := rs.getPath(ec)
	if err != nil {
		return "", nil, err
	}
	if t.indexFn == nil {
		return pattern, rs.fut, nil
	}
	i, err := evalIndex(t.indexFn, fr, ec, t.line)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf(pattern, i), rs.arr.Elem(int(i)), nil
}

// phaseA performs every read and check of one invocation — argument values,
// output paths, mpi size, command tokens — and builds the AppInvocation. It
// has no side effects, so a would-block can be retried wholesale.
func (a *cAppCall) phaseA(fr *frame, ec *ectx) (AppInvocation, []*dataflow.Future, []FileVal, error) {
	var zero AppInvocation
	if a.arityErr != nil {
		return zero, nil, nil, a.arityErr
	}
	appFr := &frame{parent: ec.rt.root, slots: make([]rslot, a.nIns+a.nOuts)}
	for i := range a.ins {
		in := &a.ins[i]
		if in.preErr != nil {
			return zero, nil, nil, in.preErr
		}
		v, err := in.arg.fn(fr, ec)
		if err != nil {
			return zero, nil, nil, err
		}
		if in.isFile {
			if _, ok := v.(FileVal); !ok {
				return zero, nil, nil, rtErrf(a.line, "app %s: argument %s must be a file, got %T", a.name, in.pname, v)
			}
		}
		if in.postErr != nil {
			return zero, nil, nil, in.postErr
		}
		appFr.slots[i].imm = v
	}
	outFuts := make([]*dataflow.Future, len(a.outs))
	outVals := make([]FileVal, len(a.outs))
	var outPaths []string
	for i := range a.outs {
		out := &a.outs[i]
		if out.preErr != nil {
			return zero, nil, nil, out.preErr
		}
		path, fut, err := out.target.resolveFile(fr, ec)
		if err != nil {
			return zero, nil, nil, err
		}
		if out.postErr != nil {
			return zero, nil, nil, out.postErr
		}
		outFuts[i] = fut
		outVals[i] = FileVal{Path: path}
		outPaths = append(outPaths, path)
		appFr.slots[a.nIns+i].imm = outVals[i]
	}
	inv := AppInvocation{App: a.name, OutFiles: outPaths}
	if a.app.mpi != nil {
		v, err := a.app.mpi.fn(appFr, ec)
		if err != nil {
			return zero, nil, nil, err
		}
		n, ok := v.(int64)
		if !ok || n < 1 {
			return zero, nil, nil, rtErrf(a.line, "app %s: mpi size must be a positive int, got %v", a.name, v)
		}
		inv.NProcs = int(n)
	}
	for _, tok := range a.app.tokens {
		v, err := tok.fn.fn(appFr, ec)
		if err != nil {
			return zero, nil, nil, err
		}
		switch tok.kind {
		case tokStdout:
			inv.StdoutFile = v.(string)
		case tokFile:
			inv.Tokens = append(inv.Tokens, v.(string))
		default:
			inv.Tokens = append(inv.Tokens, toDisplay(v))
		}
	}
	if len(inv.Tokens) == 0 {
		return zero, nil, nil, rtErrf(a.line, "app %s resolved to an empty command", a.name)
	}
	return inv, outFuts, outVals, nil
}

// compileAppStmt lowers a statement-position app call: phase A inline — on
// the walk, or on the runner when the statement had to wait for an argument —
// and phase B fire-and-forget; no goroutine parks waiting for the data or
// for the job. A call with an effectful argument is not fast and runs both
// phases on a blocking goroutine of its own.
func (c *compiler) compileAppStmt(sc *cscope, call *Call, targets []LValue, line int) cstmt {
	ac := c.compileAppCall(sc, call, targets, line)
	return cstmt{fast: ac.fast(), exec: func(fr *frame, ec *ectx) error {
		inv, outFuts, outVals, err := ac.phaseA(fr, ec)
		if err != nil {
			return err
		}
		ec.rt.dispatchApp(inv, outFuts, outVals, ac.name, ac.line, fr.it, nil)
		return nil
	}}
}

// invokeWait is the expression-position form: submit, then block until the
// invocation completes, like the interpreter's synchronous invokeApp. Only
// reached on the blocking path (app calls are always effectful).
func (a *cAppCall) invokeWait(fr *frame, ec *ectx) error {
	inv, outFuts, outVals, err := a.phaseA(fr, ec)
	if err != nil {
		return err
	}
	ch := make(chan error, 1)
	ec.rt.dispatchApp(inv, outFuts, outVals, a.name, a.line, fr.it, ch)
	select {
	case err := <-ch:
		return err
	case <-ec.ctx.Done():
		return ec.ctx.Err()
	}
}
