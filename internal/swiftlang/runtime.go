package swiftlang

// The compiled runtime (crt): frame-based execution with an inline
// non-blocking fast path. A generator-style script — declarations whose
// inputs are already set, foreach over resolved bounds, app calls whose
// arguments are immediate — runs entirely on the caller's goroutine,
// submitting tasks through the batched executor without ever parking.
//
// A fast statement that reaches an unset future is suspended as data, not as
// a goroutine: a parked record {exec, frame} registered on that future with
// OnSet, under an engine hold. Setting the future only moves the record to
// the run's ready list; one runner goroutine per run retries ready
// statements in non-blocking mode, parks them again on the next unset future
// they meet, and releases the hold with the statement's result. A statement
// is never evaluated on the goroutine that set its input: app outputs are
// set from dispatch.Handle.OnDone callbacks, which run under Dispatcher.mu,
// and a resumed app statement submits to that same dispatcher.
//
// A foreach is suspended as data too. Its statement becomes a loop record
// {body, frame, next, hi} that is walked while it has credits — the run's
// window for a loop the compiler found windowable (flow.go), an unlimited
// supply otherwise — and parks itself on the same suspended list, under one
// hold, when they run out; the block around it keeps walking. Each iteration
// owns a token that counts what outlives its walk (parked statements, app
// invocations, nested loops). The last release retires the iteration: its
// private array elements are dropped, its credit goes back, and a loop
// waiting for credits moves to the ready list once a quarter of the window is
// free. Retirement happens wherever the last hold was released — completion
// callbacks included — so, like wake, it only enqueues.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"jets/internal/dataflow"
)

// crt is the state of one compiled-program run.
type crt struct {
	cfg    Config
	eng    *dataflow.Engine
	exec   AsyncExecutor
	prog   *CompiledProgram
	root   *frame
	host   builtinHost
	seq    atomic.Int64
	window int64 // credits of a windowable foreach: iterations it may have in flight

	mu        sync.Mutex
	suspended *parked       // statements waiting on a future and loops waiting for credits, newest first
	ready     []*parked     // woken records awaiting the runner
	kick      chan struct{} // ready went from empty to non-empty
	canceled  bool          // the run's context ended: suspended was given up
	inflight  int64         // iterations walked and not retired, this run's share of the gauge
}

// parked is a suspended piece of the walk: a fast statement that reached an
// unset future, or (loop set) a foreach that ran out of credits. It holds what
// the runner needs to continue it, and its place in the run's suspended list
// while it waits.
type parked struct {
	exec       func(fr *frame, ec *ectx) error
	fr         *frame
	rt         *crt
	fut        *dataflow.Future // the unset future the last attempt stopped at
	loop       *loopRec
	prev, next *parked
}

// loopRec is one execution of a foreach statement: where its walk stands and
// how many iterations it may have in flight. Its embedded record parks the
// loop itself, under one engine hold, whenever the walk runs out of credits.
type loopRec struct {
	parked        // fr is the frame the foreach statement ran in
	body          *blockBP
	lo, next, hi  int64
	hasIdx        bool
	window        int64     // unlimitedCredits for a loop the analysis left unbounded
	private       []slotRef // arrays whose element an iteration takes with it
	inflight      int64     // iterations walked and not retired; guarded by crt.mu
	waiting, held bool      // parked for credits now; has parked before (owns a hold); crt.mu
}

const unlimitedCredits = int64(1) << 62

// errLoopParked is walkLoop's report that the loop ran out of credits and is
// now the runner's to continue.
var errLoopParked = errors.New("swift: foreach parked for credits")

// slotRef addresses a variable from a frame: depth hops up, then the slot.
type slotRef struct{ depth, idx int }

// iter is the token of one foreach iteration. Every frame created on the
// iteration's behalf points at it, and everything that outlives the walk of
// the iteration — a parked statement, an app invocation, a nested loop's
// record or iteration — counts on it. When the count returns to zero the
// iteration retires: nothing can reach its private array elements any more,
// and its credit goes back to the loop.
type iter struct {
	n     atomic.Int32
	loop  *loopRec // loop.fr.it is the iteration the loop statement itself ran in
	index int64
}

// iterFrame allocates an iteration's body frame and token together.
type iterFrame struct {
	frame
	iter
}

func (it *iter) hold() {
	if it != nil {
		it.n.Add(1)
	}
}

func (it *iter) done() {
	if it != nil && it.n.Add(-1) == 0 {
		it.loop.rt.retire(it)
	}
}

// hold registers one operation that outlives the statement that started it:
// on the engine, and on the iteration it belongs to.
func (rt *crt) hold(it *iter) {
	rt.eng.Hold()
	it.hold()
}

// release ends one hold with the operation's outcome. The iteration is
// settled first, so that a run cannot end with a retirement half accounted.
func (rt *crt) release(it *iter, err error) {
	it.done()
	rt.eng.Release(err)
}

func (rt *crt) nextSeq() int64 { return rt.seq.Add(1) }

// foreachWindow derives the credits of a windowable foreach from what the
// executor says keeps it busy (WindowSizer): eight batches or four tasks per
// worker, whichever is more, so that bounding the walk never idles an
// allocation. An executor that does not say gets eight default batches.
func foreachWindow(ex Executor) int64 {
	if w := foreachHook.window; w > 0 {
		return w
	}
	batch, slots := defaultBatchMax, 0
	if ws, ok := ex.(WindowSizer); ok {
		batch, slots = ws.BatchLimit(), ws.WorkerSlots()
	}
	return int64(max(8*batch, 4*slots))
}

// Run executes the compiled program to completion under dataflow semantics.
func (p *CompiledProgram) Run(ctx context.Context, cfg Config) error {
	rt, err := p.newRun(ctx, cfg)
	if err != nil {
		return err
	}
	return rt.run()
}

func (p *CompiledProgram) newRun(ctx context.Context, cfg Config) (*crt, error) {
	if cfg.Executor == nil {
		return nil, fmt.Errorf("swift: no executor configured")
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "swift-work"
	}
	eng := dataflow.NewEngine(ctx)
	rt := &crt{cfg: cfg, eng: eng, prog: p, kick: make(chan struct{}, 1), window: foreachWindow(cfg.Executor)}
	rt.host.stdout = cfg.Stdout
	rt.host.args = cfg.Args
	if ax, ok := cfg.Executor.(AsyncExecutor); ok {
		rt.exec = ax
	} else {
		rt.exec = goAsync{ex: cfg.Executor, eng: eng}
	}
	rt.root = newFrame(p.root, nil, rt)
	return rt, nil
}

func (rt *crt) run() error {
	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		rt.runReady()
	}()
	if err := rt.runBlock(rt.prog.root, rt.root, &ectx{ctx: rt.eng.Context(), rt: rt}); err != nil {
		rt.eng.Fail(err)
	}
	// The root block has been walked: push out whatever the executor still
	// buffers (suspended statements and parked loops submit later and ride
	// the flush timer).
	if fl, ok := rt.cfg.Executor.(Flusher); ok {
		fl.Flush()
	}
	err := rt.eng.Wait()
	<-runnerDone // Wait ended the engine's context, which stops the runner
	return err
}

// runBlock launches a compiled block's statements against fr. Fast
// statements run inline in non-blocking mode, and one that reaches an unset
// future is parked on it. The rest — statements whose reads are interleaved
// with side effects, so a retry would repeat the effect — block on a
// goroutine of their own.
func (rt *crt) runBlock(bp *blockBP, fr *frame, ec *ectx) error {
	if ec.blocking {
		// Called from such a goroutine, running an if or foreach body: the
		// inline attempts need a non-blocking context of their own.
		ec = &ectx{ctx: ec.ctx, rt: rt}
	}
	for i := range bp.stmts {
		st := &bp.stmts[i]
		if !st.fast {
			exec, it := st.exec, fr.it
			it.hold()
			rt.eng.Go(func(ctx context.Context) error {
				defer it.done()
				return exec(fr, &ectx{ctx: ctx, rt: rt, blocking: true})
			})
			continue
		}
		switch err := st.exec(fr, ec); err {
		case nil:
		case errWouldBlock:
			rt.hold(fr.it)
			rt.suspend(&parked{exec: st.exec, fr: fr, rt: rt}, ec.blocked)
		default:
			return err
		}
	}
	return nil
}

// walkLoop walks iterations of lp for as long as it has credits. It returns
// nil when the loop is fully walked, the error of a body statement that failed
// inline, or errLoopParked once the walk ran out of credits: the loop is then
// on the suspended list under a hold of its own, iterations that retire give
// their credits back, and the runner continues the walk — so the block around
// the loop keeps walking either way. An unbounded loop is the same walk with
// credits that never run out.
func (rt *crt) walkLoop(lp *loopRec, ec *ectx) error {
	for lp.next <= lp.hi {
		if !rt.takeCredit(lp) {
			return errLoopParked
		}
		x := &iterFrame{}
		x.iter.loop, x.iter.index = lp, lp.next
		x.iter.n.Store(1) // the walk's own count, until the body has been walked
		lp.fr.it.hold()   // released when this iteration retires
		sub := &x.frame
		sub.it = &x.iter
		initFrame(sub, lp.body, lp.fr, rt)
		sub.slots[0].imm = lp.next
		if lp.hasIdx {
			sub.slots[1].imm = lp.next - lp.lo
		}
		lp.next++
		err := rt.runBlock(lp.body, sub, ec)
		x.iter.done()
		if err != nil {
			return err
		}
	}
	return nil
}

// takeCredit admits one more iteration of lp, or parks the loop when its
// window is full (or the run is over) and reports false.
func (rt *crt) takeCredit(lp *loopRec) bool {
	rt.mu.Lock()
	ok := !rt.canceled && lp.inflight < lp.window
	switch {
	case ok:
		lp.inflight++
		rt.inflight++
		swiftIterationsInflight.Add(1)
	case !rt.canceled:
		if !lp.held {
			lp.held = true
			rt.hold(lp.fr.it)
		}
		lp.waiting = true
		rt.link(&lp.parked)
		swiftLoopsParked.Add(1)
	}
	rt.mu.Unlock()
	return ok
}

// retire ends an iteration whose last hold was released: the elements it
// alone could reach are dropped, its credit goes back to the loop, and a loop
// parked for credits is handed to the runner once a bulk of them is free. It
// runs on whichever goroutine released the hold — an executor's completion
// callback included — so it only enqueues.
func (rt *crt) retire(it *iter) {
	lp := it.loop
	for _, s := range lp.private {
		frameAt(lp.fr, s.depth).slots[s.idx].arr.Drop(int(it.index))
	}
	rt.mu.Lock()
	if rt.canceled {
		rt.mu.Unlock()
		return
	}
	lp.inflight--
	rt.inflight--
	swiftIterationsInflight.Add(-1)
	first := false
	if lp.waiting && lp.window-lp.inflight >= max(1, lp.window/4) {
		lp.waiting = false
		swiftLoopsParked.Add(-1)
		rt.unlink(&lp.parked)
		first = rt.enqueue(&lp.parked)
	}
	rt.mu.Unlock()
	if first {
		rt.kickRunner()
	}
	lp.fr.it.done()
}

// link puts p at the head of the suspended list. Caller holds rt.mu.
func (rt *crt) link(p *parked) {
	p.prev, p.next = nil, rt.suspended
	if p.next != nil {
		p.next.prev = p
	}
	rt.suspended = p
}

// unlink takes p off the suspended list. Caller holds rt.mu.
func (rt *crt) unlink(p *parked) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		rt.suspended = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// enqueue appends p to the ready list and reports whether the runner may be
// asleep. Caller holds rt.mu.
func (rt *crt) enqueue(p *parked) bool {
	rt.ready = append(rt.ready, p)
	return len(rt.ready) == 1
}

func (rt *crt) kickRunner() {
	select {
	case rt.kick <- struct{}{}:
	default:
	}
}

// suspend parks p on fut, the unset future its last attempt stopped at.
func (rt *crt) suspend(p *parked, fut *dataflow.Future) {
	rt.mu.Lock()
	if rt.canceled {
		rt.mu.Unlock()
		return // its hold went with the rest
	}
	p.fut = fut
	rt.link(p)
	rt.mu.Unlock()
	swiftSuspended.Add(1)
	if !fut.OnSet(p.wake) {
		p.wake() // set since the attempt read it
	}
}

// wake moves p from the suspended list to the ready list. It is the OnSet
// callback, so it runs on the setter's goroutine, possibly under
// Dispatcher.mu, and does nothing else.
func (p *parked) wake() {
	rt := p.rt
	rt.mu.Lock()
	if rt.canceled {
		rt.mu.Unlock()
		return
	}
	rt.unlink(p)
	first := rt.enqueue(p)
	rt.mu.Unlock()
	swiftSuspended.Add(-1)
	if first {
		rt.kickRunner()
	}
}

// runReady is the run's runner goroutine: it retries every statement and
// continues every loop on the ready list, batch by batch, until the engine's
// context ends — by Wait returning, a failure, or the caller's cancellation —
// and then gives up whatever is still suspended.
func (rt *crt) runReady() {
	ctx := rt.eng.Context()
	ec := &ectx{ctx: ctx, rt: rt}
	var batch []*parked
	for ctx.Err() == nil {
		rt.mu.Lock()
		batch, rt.ready = rt.ready, batch[:0]
		rt.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-rt.kick:
			case <-ctx.Done():
			}
			continue
		}
		for i, p := range batch {
			batch[i] = nil
			var err error
			if p.loop != nil {
				err = rt.walkLoop(p.loop, ec)
			} else {
				swiftResumed.Inc()
				err = p.exec(p.fr, ec)
			}
			switch err {
			case errWouldBlock:
				rt.suspend(p, ec.blocked)
			case errLoopParked:
			default:
				rt.release(p.fr.it, err)
			}
		}
	}
	rt.abandonSuspended()
}

// abandonSuspended ends the run for everything still waiting: one of the
// statements waiting for data names the run's failure, in the words a blocked
// Get would have used, and the engine drops their holds together with those
// of loops parked for credits and of invocations still in flight (whose jobs
// keep running on the dispatcher; their late completions release nothing).
func (rt *crt) abandonSuspended() {
	rt.mu.Lock()
	rt.canceled = true
	head := rt.suspended
	rt.suspended, rt.ready = nil, nil
	swiftIterationsInflight.Add(-rt.inflight)
	rt.inflight = 0
	rt.mu.Unlock()
	var stmts, loops int64
	var waited *dataflow.Future
	for p := head; p != nil; p = p.next {
		if p.loop != nil {
			loops++
			continue
		}
		stmts++
		waited = p.fut
	}
	swiftSuspended.Add(-stmts)
	swiftLoopsParked.Add(-loops)
	if waited != nil {
		rt.eng.Fail(waited.WaitError(rt.eng.Context().Err()))
	}
	rt.eng.AbandonHolds()
}

// dispatchApp is phase B of an app invocation: register a hold for the
// calling statement's iteration it, hand the invocation to the async executor,
// and return. The completion callback
// sets the output futures; an execution failure is wrapped exactly as the
// interpreter wraps it. With notify set (expression-position calls), the
// outcome goes to the channel instead of the engine.
func (rt *crt) dispatchApp(inv AppInvocation, outFuts []*dataflow.Future, outVals []FileVal, appName string, line int, it *iter, notify chan<- error) {
	rt.hold(it)
	done := func(execErr error) {
		var err error
		if execErr != nil {
			err = fmt.Errorf("swift: app %s (line %d): %w", appName, line, execErr)
		} else {
			for i, fut := range outFuts {
				if serr := fut.Set(outVals[i]); serr != nil {
					err = serr
					break
				}
			}
		}
		if notify != nil {
			rt.release(it, nil)
			notify <- err
			return
		}
		rt.release(it, err)
	}
	rt.exec.ExecuteAsync(rt.eng.Context(), inv, done)
}
