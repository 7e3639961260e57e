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

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"jets/internal/dataflow"
)

// crt is the state of one compiled-program run.
type crt struct {
	cfg  Config
	eng  *dataflow.Engine
	exec AsyncExecutor
	root *frame
	host builtinHost
	seq  atomic.Int64

	mu        sync.Mutex
	suspended *parked       // statements waiting on an unset future, newest first
	ready     []*parked     // statements whose future was set, awaiting the runner
	kick      chan struct{} // ready went from empty to non-empty
	canceled  bool          // the run's context ended: suspended was given up
}

// parked is a suspended fast statement: what the runner needs to retry it,
// and its place in the run's suspended list while it waits.
type parked struct {
	exec       func(fr *frame, ec *ectx) error
	fr         *frame
	rt         *crt
	fut        *dataflow.Future // the unset future the last attempt stopped at
	prev, next *parked
}

func (rt *crt) nextSeq() int64 { return rt.seq.Add(1) }

// Run executes the compiled program to completion under dataflow semantics.
func (p *CompiledProgram) Run(ctx context.Context, cfg Config) error {
	if cfg.Executor == nil {
		return fmt.Errorf("swift: no executor configured")
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "swift-work"
	}
	eng := dataflow.NewEngine(ctx)
	rt := &crt{cfg: cfg, eng: eng, kick: make(chan struct{}, 1)}
	rt.host.stdout = cfg.Stdout
	rt.host.args = cfg.Args
	if ax, ok := cfg.Executor.(AsyncExecutor); ok {
		rt.exec = ax
	} else {
		rt.exec = goAsync{ex: cfg.Executor, eng: eng}
	}
	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		rt.runReady()
	}()
	rootFr := newFrame(p.root, nil, rt)
	rt.root = rootFr
	if err := rt.runBlock(p.root, rootFr, &ectx{ctx: eng.Context(), rt: rt}); err != nil {
		eng.Fail(err)
	}
	// The whole graph has been walked: push out whatever the executor still
	// buffers (suspended statements submit later and ride the flush timer).
	if fl, ok := cfg.Executor.(Flusher); ok {
		fl.Flush()
	}
	err := eng.Wait()
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
			exec := st.exec
			rt.eng.Go(func(ctx context.Context) error {
				return exec(fr, &ectx{ctx: ctx, rt: rt, blocking: true})
			})
			continue
		}
		switch err := st.exec(fr, ec); err {
		case nil:
		case errWouldBlock:
			rt.eng.Hold()
			rt.suspend(&parked{exec: st.exec, fr: fr, rt: rt}, ec.blocked)
		default:
			return err
		}
	}
	return nil
}

// suspend parks p on fut, the unset future its last attempt stopped at.
func (rt *crt) suspend(p *parked, fut *dataflow.Future) {
	rt.mu.Lock()
	if rt.canceled {
		rt.mu.Unlock()
		return // its hold went with the rest
	}
	p.fut = fut
	p.prev, p.next = nil, rt.suspended
	if p.next != nil {
		p.next.prev = p
	}
	rt.suspended = p
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
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		rt.suspended = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	rt.ready = append(rt.ready, p)
	first := len(rt.ready) == 1
	rt.mu.Unlock()
	swiftSuspended.Add(-1)
	if first {
		select {
		case rt.kick <- struct{}{}:
		default:
		}
	}
}

// runReady is the run's runner goroutine: it retries every statement on the
// ready list, batch by batch, until the engine's context ends — by Wait
// returning, a failure, or the caller's cancellation — and then gives up
// whatever is still suspended.
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
			swiftResumed.Inc()
			if err := p.exec(p.fr, ec); err == errWouldBlock {
				rt.suspend(p, ec.blocked)
			} else {
				rt.eng.Release(err)
			}
		}
	}
	rt.abandonSuspended()
}

// abandonSuspended ends the run for every statement still waiting for data:
// one of them names the run's failure, in the words a blocked Get would have
// used, and the engine drops their holds together with those of invocations
// still in flight (whose jobs keep running on the dispatcher; their late
// completions release nothing).
func (rt *crt) abandonSuspended() {
	rt.mu.Lock()
	rt.canceled = true
	head := rt.suspended
	rt.suspended, rt.ready = nil, nil
	rt.mu.Unlock()
	n := int64(0)
	for p := head; p != nil; p = p.next {
		n++
	}
	swiftSuspended.Add(-n)
	if head != nil {
		rt.eng.Fail(head.fut.WaitError(rt.eng.Context().Err()))
	}
	rt.eng.AbandonHolds()
}

// dispatchApp is phase B of an app invocation: register an engine hold, hand
// the invocation to the async executor, and return. The completion callback
// sets the output futures; an execution failure is wrapped exactly as the
// interpreter wraps it. With notify set (expression-position calls), the
// outcome goes to the channel instead of the engine.
func (rt *crt) dispatchApp(inv AppInvocation, outFuts []*dataflow.Future, outVals []FileVal, appName string, line int, notify chan<- error) {
	rt.eng.Hold()
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
			rt.eng.Release(nil)
			notify <- err
			return
		}
		rt.eng.Release(err)
	}
	rt.exec.ExecuteAsync(rt.eng.Context(), inv, done)
}
