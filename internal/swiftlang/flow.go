package swiftlang

// flow.go decides, before anything runs, which foreach loops the compiled
// runtime may walk a window of iterations at a time (DESIGN.md "Windowed
// foreach"). Holding back unwalked iterations is only safe if no walked
// iteration can wait — through any chain of statements, inside or outside the
// loop — for something an unwalked one produces. The pass answers that with
// one program-wide flows-to relation over declared variables:
//
//   - every variable a statement reads flows to every variable it writes. A
//     statement's reads include the conditions and bounds of the if and
//     foreach blocks around it, the mapper expression of a file variable it
//     writes, and the global variables an app it calls mentions; app outputs
//     depend on all app inputs.
//   - a foreach is also one statement as a whole: everything its body reads
//     gates how far its walk gets, and so every variable its body writes.
//
// For a loop L with body B, T(L) is everything reachable from the variables
// declared outside B that B writes. L is windowable iff every read in B of a
// variable declared outside B is of a variable not in T(L), or is a
// same-iteration read: an element v[e] that B also writes as v[e'], e'
// identical to e once identifiers are resolved, the write sitting in the
// read's own block or an enclosing block inside B — so the iteration that
// reads the element is the one that walked its producer. Indices are runtime
// expressions, so anything else is unbounded and walks the way it always did.

import (
	"fmt"
	"strings"
)

// flowVar is one declared variable (or loop variable), program-wide.
type flowVar struct {
	id     int
	name   string
	blk    *flowBlock
	mapper []*flowVar // what the declaration's mapper expression reads
}

// flowBlock mirrors one lexical block.
type flowBlock struct {
	parent *flowBlock
	vars   map[string]*flowVar
	loop   *Foreach // the loop this block is the body of, if any
}

func (b *flowBlock) lookup(name string) *flowVar {
	for ; b != nil; b = b.parent {
		if v, ok := b.vars[name]; ok {
			return v
		}
	}
	return nil
}

// within reports whether b is outer or nested inside it.
func (b *flowBlock) within(outer *flowBlock) bool {
	for ; b != nil; b = b.parent {
		if b == outer {
			return true
		}
	}
	return false
}

// access is one reference to a variable by a statement sitting in blk. key is
// the index expression of an element reference v[e], identifiers resolved to
// their declarations; it is empty for every other kind of reference.
type access struct {
	v     *flowVar
	write bool
	key   string
	blk   *flowBlock
}

// loopClass is the verdict on one foreach: reason is empty for a windowable
// loop and says what rules it out otherwise; private names the arrays whose
// elements no statement outside the owning iteration can reach.
type loopClass struct {
	reason  string
	private []string
}

type flowLoop struct {
	st   *Foreach
	body *flowBlock
}

type flow struct {
	nvars    int
	succ     map[*flowVar][]*flowVar // flows-to
	accs     []access
	loops    []flowLoop
	appReads map[string][]*flowVar // globals an app's mpi and command tokens read
}

// classifyLoops runs the analysis over a parsed program.
func classifyLoops(prog *Program) map[*Foreach]loopClass {
	f := &flow{succ: map[*flowVar][]*flowVar{}, appReads: map[string][]*flowVar{}}
	root := &flowBlock{vars: map[string]*flowVar{}}
	f.declare(prog.Stmts, root)
	for name, app := range prog.Apps {
		f.appReads[name] = f.appGlobals(app, root)
	}
	f.block(prog.Stmts, root, nil)
	out := make(map[*Foreach]loopClass, len(f.loops))
	for _, l := range f.loops {
		out[l.st] = f.classify(l)
	}
	return out
}

func (f *flow) newVar(name string, blk *flowBlock) *flowVar {
	v := &flowVar{id: f.nvars, name: name, blk: blk}
	f.nvars++
	blk.vars[name] = v
	return v
}

// declare makes every declaration of a block visible to all of its
// statements, as the compiler's declareBlock does; the first of two
// declarations of a name wins.
func (f *flow) declare(stmts []Stmt, blk *flowBlock) {
	var decls []*VarDecl
	for _, s := range stmts {
		if d, ok := s.(*VarDecl); ok {
			if _, dup := blk.vars[d.Name]; !dup {
				f.newVar(d.Name, blk)
				decls = append(decls, d)
			}
		}
	}
	for _, d := range decls {
		if d.Mapper != nil {
			blk.vars[d.Name].mapper = vars(f.reads(blk, d.Mapper, nil))
		}
	}
}

// appGlobals lists the global variables an app declaration's mpi size and
// command tokens read; its parameters shadow globals of the same name.
func (f *flow) appGlobals(app *AppDecl, root *flowBlock) []*flowVar {
	params := &flowBlock{parent: root, vars: map[string]*flowVar{}}
	for _, p := range append(append([]Param(nil), app.Ins...), app.Outs...) {
		params.vars[p.Name] = &flowVar{id: -1, name: p.Name, blk: params}
	}
	var accs []access
	if app.MPI != nil {
		accs = f.reads(params, app.MPI, accs)
	}
	for _, tok := range app.Tokens {
		for _, e := range []Expr{tok.Expr, tok.FileOf, tok.StdoutOf} {
			if e != nil {
				accs = f.reads(params, e, accs)
			}
		}
	}
	var globals []*flowVar
	for _, a := range accs {
		if a.v.blk == root {
			globals = append(globals, a.v)
		}
	}
	return globals
}

// reads appends one access per variable reference in e, as read by a
// statement in blk. Undeclared names are skipped: they fail at run time.
func (f *flow) reads(blk *flowBlock, e Expr, out []access) []access {
	switch x := e.(type) {
	case *Ident:
		if v := blk.lookup(x.Name); v != nil {
			out = append(out, access{v: v, blk: blk})
		}
	case *Index:
		out = f.reads(blk, x.Index, out)
		if id, ok := x.Arr.(*Ident); ok {
			if v := blk.lookup(id.Name); v != nil {
				out = append(out, access{v: v, key: f.key(blk, x.Index), blk: blk})
			}
		}
	case *Call:
		for _, a := range x.Args {
			out = f.reads(blk, a, out)
		}
		// What the app's own body reads has no index this block could match.
		for _, v := range f.appReads[x.Name] {
			out = append(out, access{v: v, blk: blk})
		}
	case *Unary:
		out = f.reads(blk, x.X, out)
	case *Binary:
		out = f.reads(blk, x.R, f.reads(blk, x.L, out))
	case *FileOf:
		out = f.reads(blk, x.X, out)
	}
	return out
}

// key renders an expression with identifiers replaced by the declarations
// they resolve to, so equal keys in nested blocks mean equal values.
func (f *flow) key(blk *flowBlock, e Expr) string {
	switch x := e.(type) {
	case *Lit:
		return fmt.Sprintf("%#v", x.Val)
	case *Ident:
		if v := blk.lookup(x.Name); v != nil {
			return fmt.Sprintf("$%d", v.id)
		}
		return "?" + x.Name
	case *Index:
		return f.key(blk, x.Arr) + "[" + f.key(blk, x.Index) + "]"
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = f.key(blk, a)
		}
		return x.Name + "(" + strings.Join(args, ",") + ")"
	case *Unary:
		return x.Op + f.key(blk, x.X)
	case *Binary:
		return "(" + f.key(blk, x.L) + x.Op + f.key(blk, x.R) + ")"
	case *FileOf:
		return "@" + f.key(blk, x.X)
	}
	return fmt.Sprintf("%T", e)
}

func vars(accs []access) []*flowVar {
	out := make([]*flowVar, len(accs))
	for i, a := range accs {
		out[i] = a.v
	}
	return out
}

// write records an assignment target and, as reads of the same statement,
// its index expression and the target's mapper.
func (f *flow) write(blk *flowBlock, lv LValue, rs []access) (*flowVar, []access) {
	v := blk.lookup(lv.Name)
	if v == nil {
		return nil, rs
	}
	a := access{v: v, write: true, blk: blk}
	if lv.Index != nil {
		rs = f.reads(blk, lv.Index, rs)
		a.key = f.key(blk, lv.Index)
	}
	f.accs = append(f.accs, a)
	for _, m := range v.mapper {
		rs = append(rs, access{v: m, blk: blk})
	}
	return v, rs
}

// block walks the statements of one block. ctx is what the conditions and
// bounds around the block read. It returns every variable the statements read
// and write, nested blocks included.
func (f *flow) block(stmts []Stmt, blk *flowBlock, ctx []*flowVar) (reads, writes []*flowVar) {
	nested := func(body []Stmt, loop *Foreach, cond []access) *flowBlock {
		sub := &flowBlock{parent: blk, vars: map[string]*flowVar{}, loop: loop}
		if loop != nil {
			f.newVar(loop.Var, sub)
			if loop.IndexVar != "" && loop.IndexVar != loop.Var {
				f.newVar(loop.IndexVar, sub)
			}
		}
		f.declare(body, sub)
		r, w := f.block(body, sub, append(append([]*flowVar(nil), ctx...), vars(cond)...))
		reads, writes = append(reads, r...), append(writes, w...)
		if loop != nil {
			// The loop as one statement: its walk is gated by all it reads.
			f.flowsTo(append(append(r, ctx...), vars(cond)...), w)
			f.loops = append(f.loops, flowLoop{st: loop, body: sub})
		}
		return sub
	}
	for _, s := range stmts {
		var rs []access
		var ws []*flowVar
		target := func(lv LValue) {
			v, r := f.write(blk, lv, rs)
			rs = r
			if v != nil {
				ws = append(ws, v)
			}
		}
		switch st := s.(type) {
		case *VarDecl:
			if st.Mapper != nil {
				rs = f.reads(blk, st.Mapper, rs)
			}
			if st.Init != nil {
				rs = f.reads(blk, st.Init, rs)
				target(LValue{Name: st.Name})
			} else if v := blk.lookup(st.Name); v != nil && st.Mapper != nil {
				ws = append(ws, v) // the path, not a value: no access to record
			}
		case *Assign:
			rs = f.reads(blk, st.RHS, rs)
			for _, lv := range st.Targets {
				target(lv)
			}
		case *ExprStmt:
			rs = f.reads(blk, st.X, rs)
		case *If:
			rs = f.reads(blk, st.Cond, rs)
			nested(st.Then, nil, rs)
			if st.Else != nil {
				nested(st.Else, nil, rs)
			}
		case *Foreach:
			for _, e := range []Expr{st.RangeLo, st.RangeHi, st.Source} {
				if e != nil {
					rs = f.reads(blk, e, rs)
				}
			}
			nested(st.Body, st, rs)
		}
		f.accs = append(f.accs, rs...)
		f.flowsTo(append(vars(rs), ctx...), ws)
		reads, writes = append(reads, vars(rs)...), append(writes, ws...)
	}
	return reads, writes
}

// flowsTo records that every variable of from flows to every variable of to,
// through one node standing for the statement, so edges stay linear in the
// statement's size even for a loop taken as a whole.
func (f *flow) flowsTo(from, to []*flowVar) {
	if len(from) == 0 || len(to) == 0 {
		return
	}
	stmt := &flowVar{}
	f.succ[stmt] = to
	for _, r := range from {
		f.succ[r] = append(f.succ[r], stmt)
	}
}

// classify applies the windowable rule to one loop and, for a windowable one,
// finds the arrays private to its iterations.
func (f *flow) classify(l flowLoop) loopClass {
	var inBody []access
	for _, a := range f.accs {
		if a.blk.within(l.body) {
			inBody = append(inBody, a)
		}
	}
	outer := func(v *flowVar) bool { return !v.blk.within(l.body) }
	// sameIteration: the element read r has a producer in its own iteration.
	sameIteration := func(r access) bool {
		if r.key == "" {
			return false
		}
		for _, w := range inBody {
			if w.write && w.v == r.v && w.key == r.key && r.blk.within(w.blk) {
				return true
			}
		}
		return false
	}

	tainted := map[*flowVar]bool{}
	var work []*flowVar
	for _, a := range inBody {
		if a.write && outer(a.v) && !tainted[a.v] {
			tainted[a.v] = true
			work = append(work, a.v)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range f.succ[v] {
			if !tainted[s] {
				tainted[s] = true
				work = append(work, s)
			}
		}
	}
	for _, a := range inBody {
		if !a.write && outer(a.v) && tainted[a.v] && !sameIteration(a) {
			return loopClass{reason: fmt.Sprintf("reads %s, which may depend on another iteration of the loop", a.v.name)}
		}
	}

	// An array is private to the loop's iterations when every reference to it
	// anywhere is v[i], i the loop variable, inside this body, and every read
	// has its producer in the same iteration. Each instance of the array must
	// see the loop run at most once — no other loop between the declaration
	// and this one — so that a retired element is never written again.
	ikey := f.key(l.body, &Ident{Name: l.st.Var})
	var cls loopClass
	seen := map[*flowVar]bool{}
candidates:
	for _, c := range inBody {
		v := c.v
		if seen[v] || !outer(v) || c.key == "" {
			continue
		}
		seen[v] = true
		for b := l.body.parent; b != v.blk; b = b.parent {
			if b.loop != nil {
				continue candidates
			}
		}
		for _, a := range f.accs {
			if a.v != v {
				continue
			}
			if a.key != ikey || !a.blk.within(l.body) || (!a.write && !sameIteration(a)) {
				continue candidates
			}
		}
		cls.private = append(cls.private, v.name)
	}
	return cls
}
