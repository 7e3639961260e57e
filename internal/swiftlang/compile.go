package swiftlang

// compile.go lowers a parsed Program into a static dataflow graph executed
// by a compiled runtime (crt). The one-shot pass resolves every variable
// reference to a (depth, slot) index, folds constant subtrees, specializes
// each foreach body into one compiled blueprint instantiated per index, and
// emits AppInvocations directly. At run time, statements whose reads all
// precede their side effects (cstmt.fast) execute inline without blocking,
// and one that reaches an unset future is parked on it as a record and
// retried by the run's runner goroutine once the future is set (runtime.go).
// Only statements that interleave reads with effects keep the interpreter's
// goroutine-per-statement cost model. A foreach lowers to a loop record the
// runtime walks on credits: a loop the flows-to analysis (flow.go) finds
// windowable gets the run's window, any other an unlimited supply.

import (
	"fmt"
	"path/filepath"
	"time"

	"jets/internal/dataflow"
)

// ---------------------------------------------------------------------------
// Blueprints: the compile-time shape of blocks and slots

type slotKind uint8

const (
	kImm slotKind = iota // value written by the runtime before statements launch
	kFut                 // single-assignment scalar
	kArr                 // sparse single-assignment array
)

type pathKind uint8

const (
	pathNone    pathKind = iota
	pathAuto             // auto-mapped: concrete path minted at frame init
	pathConst            // mapper folded to a constant string
	pathRuntime          // mapper evaluated by a statement, through a future
)

// slotBP is the compile-time layout of one declared variable.
type slotBP struct {
	name       string
	typ        Type
	kind       slotKind
	futIdx     int         // index into the frame's bulk future slice (kFut)
	immVal     interface{} // kImm slots with a literal initializer
	path       pathKind
	constPath  string
	pathFutIdx int
}

// blockBP is the blueprint of one lexical block: slot layout plus lowered
// statements. One blueprint serves every frame instantiated from it — a
// foreach body compiles once and is stamped out per index.
type blockBP struct {
	slots    []slotBP
	futNames []string
	stmts    []cstmt
}

// cstmt is one lowered statement. fast statements perform all future reads
// before any side effect, so the runtime may attempt them in non-blocking
// mode, park them when they would block, and retry them from the top later.
type cstmt struct {
	fast bool
	exec func(fr *frame, ec *ectx) error
}

func errStmt(err error) cstmt {
	return cstmt{fast: true, exec: func(*frame, *ectx) error { return err }}
}

// ---------------------------------------------------------------------------
// Frames: the runtime instantiation of a blueprint

type frame struct {
	parent *frame
	slots  []rslot
	it     *iter // the foreach iteration this frame belongs to; nil outside any loop
}

type rslot struct {
	imm     interface{}
	fut     *dataflow.Future
	arr     *dataflow.Array
	path    string           // concrete path (or %d pattern), when known at init
	pathFut *dataflow.Future // set by the mapper statement at run time
}

// getPath returns the slot's file path or pattern.
func (rs *rslot) getPath(ec *ectx) (string, error) {
	if rs.pathFut == nil {
		return rs.path, nil
	}
	v, err := readFut(rs.pathFut, ec)
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// newFrame materializes a frame from its blueprint: immediates copied,
// future-backed slots drawn from one bulk allocation, arrays created, and
// auto-mapped paths minted.
func newFrame(bp *blockBP, parent *frame, rt *crt) *frame {
	fr := &frame{}
	initFrame(fr, bp, parent, rt)
	return fr
}

// initFrame fills in a zero frame, or the body frame of a foreach iteration,
// which arrives with its own token set; any other frame belongs to the
// iteration its parent belongs to.
func initFrame(fr *frame, bp *blockBP, parent *frame, rt *crt) {
	fr.parent, fr.slots = parent, make([]rslot, len(bp.slots))
	if fr.it == nil && parent != nil {
		fr.it = parent.it
	}
	var futs []*dataflow.Future
	if len(bp.futNames) > 0 {
		futs = dataflow.NewFutures(bp.futNames)
	}
	for i := range bp.slots {
		sb := &bp.slots[i]
		rs := &fr.slots[i]
		switch sb.kind {
		case kImm:
			rs.imm = sb.immVal
		case kFut:
			rs.fut = futs[sb.futIdx]
		case kArr:
			rs.arr = dataflow.NewArray(sb.name)
		}
		switch sb.path {
		case pathAuto:
			if sb.kind == kArr {
				rs.path = filepath.Join(rt.cfg.WorkDir, fmt.Sprintf("%s_%d_%%d", sb.name, rt.nextSeq()))
			} else {
				rs.path = filepath.Join(rt.cfg.WorkDir, fmt.Sprintf("%s_%d", sb.name, rt.nextSeq()))
			}
		case pathConst:
			rs.path = sb.constPath
		case pathRuntime:
			rs.pathFut = futs[sb.pathFutIdx]
		}
	}
}

// ---------------------------------------------------------------------------
// Compiler

type compiler struct {
	prog  *Program
	apps  map[string]*capp
	loops map[*Foreach]loopClass
	slow  int // statements lowered so far that are not fast
	out   *CompiledProgram
}

// cscope is the compile-time mirror of the runtime frame chain.
type cscope struct {
	parent *cscope
	vars   map[string]int
	bp     *blockBP
}

// resolve walks the scope chain for name, returning the owning scope, the
// slot index, and the frame depth.
func (s *cscope) resolve(name string) (*cscope, int, int) {
	depth := 0
	for sc := s; sc != nil; sc = sc.parent {
		if i, ok := sc.vars[name]; ok {
			return sc, i, depth
		}
		depth++
	}
	return nil, 0, 0
}

// CompiledProgram is a script lowered to slot-resolved closures; one
// compiled program can Run any number of times.
type CompiledProgram struct {
	root  *blockBP
	loops []loopInfo // every foreach, in source order of their closing braces
}

// loopInfo is the compiler's verdict on one foreach: unbounded is empty for a
// loop walked a window at a time, and says why not otherwise.
type loopInfo struct {
	line      int
	unbounded string
}

// foreachHook is the test hook of the windowed walk: window overrides the
// derived credit count of the runs started while it is set, and
// forceWindowable makes Compile treat every loop as windowable, which is how
// the tests show that the classification is what keeps the hazard scripts
// from deadlocking.
var foreachHook struct {
	window          int64
	forceWindowable bool
}

// Compile lowers a parsed program into a static dataflow graph. Semantic
// errors the interpreter raises lazily (undeclared variables, shape
// mismatches, bad mappers) are preserved as runtime-error closures with
// identical messages, so compiled and interpreted runs fail identically.
func Compile(prog *Program) *CompiledProgram {
	start := time.Now()
	c := &compiler{prog: prog, apps: map[string]*capp{}, loops: classifyLoops(prog), out: &CompiledProgram{}}
	// App shells first: call sites compiled anywhere below hold the *capp
	// pointer; bodies are filled before any Run.
	for name, app := range prog.Apps {
		ca := &capp{decl: app}
		if app.MPI != nil && c.exprEffect(app.MPI) {
			ca.effectful = true
		}
		for _, tok := range app.Tokens {
			switch {
			case tok.StdoutOf != nil:
				ca.effectful = ca.effectful || c.exprEffect(tok.StdoutOf)
			case tok.FileOf != nil:
				ca.effectful = ca.effectful || c.exprEffect(tok.FileOf)
			default:
				ca.effectful = ca.effectful || c.exprEffect(tok.Expr)
			}
		}
		c.apps[name] = ca
	}
	rootBP := &blockBP{}
	rootSc := &cscope{vars: map[string]int{}, bp: rootBP}
	decls := c.declareBlock(prog.Stmts, rootSc)
	for _, ca := range c.apps {
		c.fillApp(ca, rootSc)
	}
	rootBP.stmts = c.compileStmts(prog.Stmts, rootSc, decls)
	c.out.root = rootBP
	compileNanos.Store(time.Since(start).Nanoseconds())
	return c.out
}

// exprEffect reports whether evaluating e can perform a side effect (trace
// output or an app invocation) — a syntactic scan usable before closures
// exist.
func (c *compiler) exprEffect(e Expr) bool {
	switch x := e.(type) {
	case *Lit, *Ident:
		return false
	case *Index:
		return c.exprEffect(x.Index)
	case *Unary:
		return c.exprEffect(x.X)
	case *Binary:
		return c.exprEffect(x.L) || c.exprEffect(x.R)
	case *FileOf:
		return c.exprEffect(x.X)
	case *Call:
		if _, isApp := c.prog.Apps[x.Name]; isApp {
			return true
		}
		if x.Name == "trace" {
			return true
		}
		for _, a := range x.Args {
			if c.exprEffect(a) {
				return true
			}
		}
		return false
	}
	return true
}

// declareBlock populates the block's slot table from its VarDecls — the
// compile-time analogue of execBlock's synchronous declares. Every
// declaration of a block is visible to every statement of the block; the
// interpreter reaches the same fixpoint through goroutine launch order, the
// compiler resolves it lexically. Returns each decl's slot index, -1 for
// duplicates (which lower to the interpreter's runtime error).
func (c *compiler) declareBlock(stmts []Stmt, sc *cscope) map[*VarDecl]int {
	decls := map[*VarDecl]int{}
	for _, s := range stmts {
		d, ok := s.(*VarDecl)
		if !ok {
			continue
		}
		if _, dup := sc.vars[d.Name]; dup {
			decls[d] = -1
			continue
		}
		sb := slotBP{name: d.Name, typ: d.Type}
		switch {
		case d.IsArray:
			sb.kind = kArr
		case isImmDecl(d):
			sb.kind = kImm
			sb.immVal = d.Init.(*Lit).Val
		default:
			sb.kind = kFut
			sb.futIdx = len(sc.bp.futNames)
			sc.bp.futNames = append(sc.bp.futNames, d.Name)
		}
		if d.Type == TFile && d.Mapper == nil {
			sb.path = pathAuto
		}
		idx := len(sc.bp.slots)
		sc.bp.slots = append(sc.bp.slots, sb)
		sc.vars[d.Name] = idx
		decls[d] = idx
	}
	return decls
}

// isImmDecl reports whether a decl lowers to an immediate slot: a
// literal-initialized non-file scalar needs no future and never blocks.
func isImmDecl(d *VarDecl) bool {
	if d.IsArray || d.Type == TFile || d.Init == nil {
		return false
	}
	_, ok := d.Init.(*Lit)
	return ok
}

// compileBlock declares and lowers a nested block (if branch, foreach body
// extends an existing scope via compileStmts instead).
func (c *compiler) compileBlock(stmts []Stmt, parent *cscope) *blockBP {
	bp := &blockBP{}
	sc := &cscope{parent: parent, vars: map[string]int{}, bp: bp}
	decls := c.declareBlock(stmts, sc)
	bp.stmts = c.compileStmts(stmts, sc, decls)
	return bp
}

// compileStmts lowers the statements of one block, in source order.
func (c *compiler) compileStmts(stmts []Stmt, sc *cscope, decls map[*VarDecl]int) []cstmt {
	out := make([]cstmt, 0, len(stmts))
	for _, s := range stmts {
		switch st := s.(type) {
		case *VarDecl:
			if cs, emit := c.compileDecl(st, sc, decls[st]); emit {
				out = append(out, cs)
			}
		case *Assign:
			out = append(out, c.compileAssignTo(sc, st.Targets, st.RHS, st.Line))
		case *If:
			out = append(out, c.compileIf(sc, st))
		case *Foreach:
			out = append(out, c.compileForeach(sc, st))
		case *ExprStmt:
			out = append(out, c.compileExprStmt(sc, st))
		default:
			out = append(out, errStmt(fmt.Errorf("swift: unknown statement %T", s)))
		}
	}
	for i := range out {
		if !out[i].fast {
			c.slow++
		}
	}
	return out
}

// compileDecl lowers a declaration's runtime work: mapper resolution and the
// initializer, executed sequentially like the interpreter's initDecl. A
// declaration with neither emits no statement.
func (c *compiler) compileDecl(d *VarDecl, sc *cscope, idx int) (cstmt, bool) {
	if idx < 0 {
		return errStmt(rtErrf(d.Line, "swift: duplicate declaration of %q", d.Name)), true
	}
	var mapperExec func(fr *frame, ec *ectx) error
	mapperFast := true
	if d.Type == TFile && d.Mapper != nil {
		mv := c.compileExpr(sc, d.Mapper)
		sb := &sc.bp.slots[idx]
		if mv.isK {
			if s, ok := mv.k.(string); ok {
				sb.path = pathConst
				sb.constPath = s
			} else {
				// Wrong-typed constant mapper: path future stays unset (as in
				// the interpreter) and the decl statement raises the error.
				sb.path = pathRuntime
				sb.pathFutIdx = len(sc.bp.futNames)
				sc.bp.futNames = append(sc.bp.futNames, d.Name+".path")
				err := rtErrf(d.Line, "mapper for %s must be a string, got %T", d.Name, mv.k)
				mapperExec = func(*frame, *ectx) error { return err }
			}
		} else {
			sb.path = pathRuntime
			sb.pathFutIdx = len(sc.bp.futNames)
			sc.bp.futNames = append(sc.bp.futNames, d.Name+".path")
			slotIdx := idx
			name, line := d.Name, d.Line
			mapperExec = func(fr *frame, ec *ectx) error {
				v, err := mv.fn(fr, ec)
				if err != nil {
					return err
				}
				path, ok := v.(string)
				if !ok {
					return rtErrf(line, "mapper for %s must be a string, got %T", name, v)
				}
				return fr.slots[slotIdx].pathFut.Set(path)
			}
			mapperFast = !mv.effectful
		}
	}
	var initStmt cstmt
	hasInit := false
	if d.Init != nil && sc.bp.slots[idx].kind != kImm {
		hasInit = true
		if d.IsArray {
			initStmt = errStmt(rtErrf(d.Line, "array %s cannot have a scalar initializer", d.Name))
		} else {
			initStmt = c.compileAssignTo(sc, []LValue{{Name: d.Name}}, d.Init, d.Line)
		}
	}
	switch {
	case mapperExec == nil && !hasInit:
		return cstmt{}, false
	case mapperExec == nil:
		return initStmt, true
	case !hasInit:
		return cstmt{fast: mapperFast, exec: mapperExec}, true
	default:
		// Mapper then init in one statement, like initDecl. A would-block in
		// the init would re-run the mapper's Set on retry, so never fast.
		initExec := initStmt.exec
		return cstmt{fast: false, exec: func(fr *frame, ec *ectx) error {
			if err := mapperExec(fr, ec); err != nil {
				return err
			}
			return initExec(fr, ec)
		}}, true
	}
}

// ctarget is a compiled assignment target.
type ctarget struct {
	err        error // compile-time-detected, raised lazily
	imm        bool  // immediate slot: assignment is a double-write
	name       string
	depth, idx int
	indexFn    cexpr // nil for scalars
	line       int
	effectful  bool
}

func (t *ctarget) resolve(fr *frame, ec *ectx) (*dataflow.Future, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.imm {
		return nil, fmt.Errorf("%w: %s", dataflow.ErrAlreadySet, t.name)
	}
	rs := &frameAt(fr, t.depth).slots[t.idx]
	if t.indexFn == nil {
		return rs.fut, nil
	}
	i, err := evalIndex(t.indexFn, fr, ec, t.line)
	if err != nil {
		return nil, err
	}
	return rs.arr.Elem(int(i)), nil
}

// compileTarget mirrors the interpreter's resolveTarget.
func (c *compiler) compileTarget(sc *cscope, lv LValue, line int) ctarget {
	scope, idx, depth := sc.resolve(lv.Name)
	if scope == nil {
		return ctarget{err: rtErrf(line, "undeclared variable %q", lv.Name)}
	}
	sb := &scope.bp.slots[idx]
	t := ctarget{name: lv.Name, depth: depth, idx: idx, line: line}
	if lv.Index == nil {
		if sb.kind == kArr {
			t.err = rtErrf(line, "%s is an array; index it", lv.Name)
			return t
		}
		t.imm = sb.kind == kImm
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

// compileAssignTo routes an assignment exactly like the interpreter's
// assignTo: app calls dispatch asynchronously; plain expressions set one
// target future.
func (c *compiler) compileAssignTo(sc *cscope, targets []LValue, rhs Expr, line int) cstmt {
	if call, ok := rhs.(*Call); ok {
		if _, isApp := c.prog.Apps[call.Name]; isApp {
			return c.compileAppStmt(sc, call, targets, line)
		}
	}
	if len(targets) != 1 {
		return errStmt(rtErrf(line, "tuple assignment requires an app call on the right-hand side"))
	}
	rv := c.compileExpr(sc, rhs)
	tgt := c.compileTarget(sc, targets[0], line)
	return cstmt{fast: !rv.effectful && !tgt.effectful, exec: func(fr *frame, ec *ectx) error {
		v, err := rv.fn(fr, ec)
		if err != nil {
			return err
		}
		fut, err := tgt.resolve(fr, ec)
		if err != nil {
			return err
		}
		return fut.Set(v)
	}}
}

func (c *compiler) compileIf(sc *cscope, st *If) cstmt {
	cond := c.compileExpr(sc, st.Cond)
	thenBP := c.compileBlock(st.Then, sc)
	var elseBP *blockBP
	if st.Else != nil {
		elseBP = c.compileBlock(st.Else, sc)
	}
	line := st.Line
	return cstmt{fast: !cond.effectful, exec: func(fr *frame, ec *ectx) error {
		cv, err := cond.fn(fr, ec)
		if err != nil {
			return err
		}
		b, ok := cv.(bool)
		if !ok {
			return rtErrf(line, "if condition must be boolean, got %T", cv)
		}
		if b {
			return ec.rt.runBlock(thenBP, newFrame(thenBP, fr, ec.rt), ec)
		}
		if elseBP != nil {
			return ec.rt.runBlock(elseBP, newFrame(elseBP, fr, ec.rt), ec)
		}
		return nil
	}}
}

// compileForeach specializes the body into a single blueprint instantiated
// per index; the loop variable(s) are immediate slots, so iteration never
// allocates futures or channels for them.
func (c *compiler) compileForeach(sc *cscope, st *Foreach) cstmt {
	if st.Source != nil {
		return errStmt(rtErrf(st.Line, "foreach over arrays is not supported; iterate a [lo:hi] range"))
	}
	lo := c.compileExpr(sc, st.RangeLo)
	hi := c.compileExpr(sc, st.RangeHi)
	bodyBP := &blockBP{}
	bodySc := &cscope{parent: sc, vars: map[string]int{}, bp: bodyBP}
	bodyBP.slots = append(bodyBP.slots, slotBP{name: st.Var, typ: TInt, kind: kImm})
	bodySc.vars[st.Var] = 0
	var loopErr error
	hasIdx := st.IndexVar != ""
	if hasIdx {
		if st.IndexVar == st.Var {
			loopErr = rtErrf(st.Line, "swift: duplicate declaration of %q", st.IndexVar)
		} else {
			bodyBP.slots = append(bodyBP.slots, slotBP{name: st.IndexVar, typ: TInt, kind: kImm})
			bodySc.vars[st.IndexVar] = 1
		}
	}
	decls := c.declareBlock(st.Body, bodySc)
	slowBefore := c.slow
	bodyBP.stmts = c.compileStmts(st.Body, bodySc, decls)
	cls := c.loops[st]
	if c.slow != slowBefore {
		cls = loopClass{reason: "a body statement interleaves reads with effects and runs on a goroutine of its own"}
	}
	c.out.loops = append(c.out.loops, loopInfo{line: st.Line, unbounded: cls.reason})
	windowable := cls.reason == "" || foreachHook.forceWindowable
	// Arrays whose elements die with the iteration, as slots seen from the
	// frame the loop statement runs in.
	var private []slotRef
	for _, name := range cls.private {
		if scope, idx, depth := sc.resolve(name); scope != nil && scope.bp.slots[idx].kind == kArr {
			private = append(private, slotRef{depth: depth, idx: idx})
		}
	}
	line := st.Line
	return cstmt{fast: !lo.effectful && !hi.effectful, exec: func(fr *frame, ec *ectx) error {
		lov, err := lo.fn(fr, ec)
		if err != nil {
			return err
		}
		hiv, err := hi.fn(fr, ec)
		if err != nil {
			return err
		}
		l, ok1 := lov.(int64)
		h, ok2 := hiv.(int64)
		if !ok1 || !ok2 {
			return rtErrf(line, "range bounds must be int, got %T and %T", lov, hiv)
		}
		if loopErr != nil && l <= h {
			return loopErr
		}
		// Swift ranges are inclusive: [0:2] is 0, 1, 2.
		lp := &loopRec{body: bodyBP, lo: l, next: l, hi: h, hasIdx: hasIdx, window: unlimitedCredits, private: private}
		lp.parked = parked{fr: fr, rt: ec.rt, loop: lp}
		if windowable {
			lp.window = ec.rt.window
		} else {
			swiftUnbounded.Inc()
		}
		if err := ec.rt.walkLoop(lp, ec); err != errLoopParked {
			return err
		}
		return nil
	}}
}

func (c *compiler) compileExprStmt(sc *cscope, st *ExprStmt) cstmt {
	if call, ok := st.X.(*Call); ok {
		if _, isApp := c.prog.Apps[call.Name]; isApp {
			return c.compileAppStmt(sc, call, nil, st.Line)
		}
		// A top-level builtin's own effect (trace's print) happens after all
		// its reads, so only effectful arguments force the goroutine path.
		cv, argsEffectful := c.compileCall(sc, call)
		return cstmt{fast: !argsEffectful, exec: func(fr *frame, ec *ectx) error {
			_, err := cv.fn(fr, ec)
			return err
		}}
	}
	cv := c.compileExpr(sc, st.X)
	return cstmt{fast: !cv.effectful, exec: func(fr *frame, ec *ectx) error {
		_, err := cv.fn(fr, ec)
		return err
	}}
}
