package swiftlang

import (
	"context"
	"errors"
	"fmt"

	"jets/internal/dataflow"
)

// Expression lowering. Each expression compiles once into a cexpr closure
// that evaluates against a frame chain; variable references are resolved to
// (depth, slot) indices at compile time, so evaluation never walks an
// environment map or takes a scope lock. Pure constant subtrees fold to
// their value during compilation.

// errWouldBlock is the non-blocking fast path's signal: evaluation reached
// an unset future, left in ectx.blocked. Fast statements perform all reads
// before any side effect, so the runtime can park the statement on that
// future and retry the whole of it once the future is set.
var errWouldBlock = errors.New("swift: evaluation would block")

// ectx is one evaluation context: the engine's cancellation context, the
// run state, and whether future reads may block. Each goroutine that
// evaluates statements owns its ectx — blocked is per evaluation.
type ectx struct {
	ctx      context.Context
	rt       *crt
	blocking bool
	blocked  *dataflow.Future // non-blocking mode: the future errWouldBlock stopped at
}

// cexpr is a compiled expression.
type cexpr func(fr *frame, ec *ectx) (interface{}, error)

// cval carries a compiled expression plus the compile-time facts statement
// lowering needs: a folded constant value when the subtree was pure, and
// whether evaluation can perform a side effect (trace output or an app
// invocation) — effectful expressions are kept off the inline fast path
// because a would-block retry would repeat the effect.
type cval struct {
	fn        cexpr
	k         interface{}
	isK       bool
	effectful bool
}

func constVal(v interface{}) cval {
	return cval{fn: func(*frame, *ectx) (interface{}, error) { return v, nil }, k: v, isK: true}
}

// errVal defers a compile-time-detected semantic error to run time, where
// the interpreter would raise it — keeping failure messages and laziness
// identical between modes.
func errVal(err error) cval {
	return cval{fn: func(*frame, *ectx) (interface{}, error) { return nil, err }}
}

// readFut reads a future under the evaluation mode.
func readFut(f *dataflow.Future, ec *ectx) (interface{}, error) {
	if v, ok := f.TryGet(); ok {
		return v, nil
	}
	if !ec.blocking {
		ec.blocked = f
		return nil, errWouldBlock
	}
	return f.Get(ec.ctx)
}

// frameAt hops depth frames up the chain.
func frameAt(fr *frame, depth int) *frame {
	for ; depth > 0; depth-- {
		fr = fr.parent
	}
	return fr
}

func (c *compiler) compileExpr(sc *cscope, e Expr) cval {
	switch x := e.(type) {
	case *Lit:
		return constVal(x.Val)

	case *Ident:
		scope, idx, depth := sc.resolve(x.Name)
		if scope == nil {
			return errVal(rtErrf(x.Line, "undeclared variable %q", x.Name))
		}
		sb := &scope.bp.slots[idx]
		if sb.kind == kArr {
			return errVal(rtErrf(x.Line, "array %q used as a scalar", x.Name))
		}
		if sb.kind == kImm {
			return cval{fn: func(fr *frame, ec *ectx) (interface{}, error) {
				return frameAt(fr, depth).slots[idx].imm, nil
			}}
		}
		return cval{fn: func(fr *frame, ec *ectx) (interface{}, error) {
			return readFut(frameAt(fr, depth).slots[idx].fut, ec)
		}}

	case *Index:
		id, ok := x.Arr.(*Ident)
		if !ok {
			return errVal(rtErrf(0, "only named arrays can be indexed"))
		}
		scope, idx, depth := sc.resolve(id.Name)
		if scope == nil {
			return errVal(rtErrf(id.Line, "undeclared variable %q", id.Name))
		}
		if scope.bp.slots[idx].kind != kArr {
			return errVal(rtErrf(id.Line, "%q is not an array", id.Name))
		}
		iv := c.compileExpr(sc, x.Index)
		line := id.Line
		return cval{effectful: iv.effectful, fn: func(fr *frame, ec *ectx) (interface{}, error) {
			i, err := evalIndex(iv.fn, fr, ec, line)
			if err != nil {
				return nil, err
			}
			return readFut(frameAt(fr, depth).slots[idx].arr.Elem(int(i)), ec)
		}}

	case *Call:
		cv, _ := c.compileCall(sc, x)
		return cv

	case *Unary:
		xv := c.compileExpr(sc, x.X)
		if xv.isK {
			v, err := applyUnary(x.Op, xv.k)
			if err != nil {
				return errVal(err)
			}
			return constVal(v)
		}
		op := x.Op
		return cval{effectful: xv.effectful, fn: func(fr *frame, ec *ectx) (interface{}, error) {
			v, err := xv.fn(fr, ec)
			if err != nil {
				return nil, err
			}
			return applyUnary(op, v)
		}}

	case *Binary:
		l := c.compileExpr(sc, x.L)
		r := c.compileExpr(sc, x.R)
		if l.isK && r.isK {
			v, err := binaryOp(x.Op, l.k, r.k)
			if err != nil {
				return errVal(err)
			}
			return constVal(v)
		}
		op := x.Op
		return cval{effectful: l.effectful || r.effectful, fn: func(fr *frame, ec *ectx) (interface{}, error) {
			lv, err := l.fn(fr, ec)
			if err != nil {
				return nil, err
			}
			rv, err := r.fn(fr, ec)
			if err != nil {
				return nil, err
			}
			return binaryOp(op, lv, rv)
		}}

	case *FileOf:
		xv := c.compileExpr(sc, x.X)
		return cval{effectful: xv.effectful, fn: func(fr *frame, ec *ectx) (interface{}, error) {
			v, err := xv.fn(fr, ec)
			if err != nil {
				return nil, err
			}
			f, ok := v.(FileVal)
			if !ok {
				return nil, rtErrf(0, "@ needs a file value, got %T", v)
			}
			return f.Path, nil
		}}
	}
	return errVal(fmt.Errorf("swift: unknown expression %T", e))
}

// compileCall lowers a call expression: app invocations become a submit-and-
// wait (expression position is rare; statement position uses the async path
// in compile.go), builtins bind to the shared host. The second result
// reports whether any ARGUMENT is effectful, which an ExprStmt uses for its
// fast-path decision: a top-level trace's own print happens after all reads,
// so only nested effects force the goroutine path.
func (c *compiler) compileCall(sc *cscope, call *Call) (cval, bool) {
	if _, isApp := c.prog.Apps[call.Name]; isApp {
		ac := c.compileAppCall(sc, call, nil, call.Line)
		return cval{effectful: true, fn: func(fr *frame, ec *ectx) (interface{}, error) {
			return nil, ac.invokeWait(fr, ec)
		}}, true
	}
	args := make([]cval, len(call.Args))
	allK := true
	argsEffectful := false
	for i, a := range call.Args {
		args[i] = c.compileExpr(sc, a)
		allK = allK && args[i].isK
		argsEffectful = argsEffectful || args[i].effectful
	}
	if allK && builtinFoldable(call.Name) {
		kargs := make([]interface{}, len(args))
		for i := range args {
			kargs[i] = args[i].k
		}
		v, err := (&builtinHost{}).call(call.Name, kargs, call.Line)
		if err != nil {
			return errVal(err), false
		}
		return constVal(v), false
	}
	name, line := call.Name, call.Line
	selfEffect := name == "trace"
	return cval{effectful: selfEffect || argsEffectful, fn: func(fr *frame, ec *ectx) (interface{}, error) {
		vals := make([]interface{}, len(args))
		for i := range args {
			v, err := args[i].fn(fr, ec)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return ec.rt.host.call(name, vals, line)
	}}, argsEffectful
}

// evalIndex evaluates an array subscript to an int.
func evalIndex(fn cexpr, fr *frame, ec *ectx, line int) (int64, error) {
	v, err := fn(fr, ec)
	if err != nil {
		return 0, err
	}
	i, ok := v.(int64)
	if !ok {
		return 0, rtErrf(line, "array index must be int, got %T", v)
	}
	return i, nil
}
