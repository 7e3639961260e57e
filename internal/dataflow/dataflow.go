// Package dataflow provides the single-assignment variables under the
// mini-Swift interpreter (internal/swiftlang). Swift semantics: every
// variable is a future that is written exactly once; statements execute
// concurrently, limited only by data dependencies; reading an unset variable
// blocks until some other statement sets it.
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrAlreadySet is returned when a single-assignment variable is written
// twice — in Swift this is a program error.
var ErrAlreadySet = errors.New("dataflow: variable already set")

// Future is a single-assignment cell. An unset future nobody blocks on is a
// plain heap record: the wake-up channel exists only once a Get has to wait,
// and non-blocking waiters register a callback with OnSet instead.
type Future struct {
	mu      sync.Mutex
	set     atomic.Bool   // written under mu with val; read without it
	elem    bool          // an array element: name is the array's, idx its index
	done    chan struct{} // allocated by the first Get that has to block
	val     interface{}
	waiters []func() // OnSet callbacks, handed to Set
	name    string
	idx     int
}

// NewFuture creates an unset future; name is used in error messages.
func NewFuture(name string) *Future {
	return &Future{name: name}
}

// Name returns the future's diagnostic name.
func (f *Future) Name() string {
	if f.elem {
		return fmt.Sprintf("%s[%d]", f.name, f.idx)
	}
	return f.name
}

// NewFutures creates one unset future per name in a single backing
// allocation — the bulk form of NewFuture. Compiled frames materialize every
// future-backed slot of a block at once, so per-future allocations dominate
// frame setup in tight foreach loops without this.
func NewFutures(names []string) []*Future {
	backing := make([]Future, len(names))
	futs := make([]*Future, len(names))
	for i, n := range names {
		backing[i].name = n
		futs[i] = &backing[i]
	}
	return futs
}

// Set writes the value, waking all readers and running the OnSet callbacks
// after the future's lock is released. Setting twice fails.
func (f *Future) Set(v interface{}) error {
	f.mu.Lock()
	if f.set.Load() {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadySet, f.Name())
	}
	f.val = v
	f.set.Store(true)
	done, waiters := f.done, f.waiters
	f.waiters = nil
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, fn := range waiters {
		fn()
	}
	return nil
}

// OnSet registers fn to run once when the future is set and reports true; on
// a future that is already set it registers nothing and reports false, so the
// caller proceeds by itself. fn runs on the setter's goroutine, outside the
// future's lock but inside whatever locks the setter holds — the JETS
// executor sets app outputs from a Handle.OnDone callback, under
// Dispatcher.mu. fn may therefore only enqueue work for another goroutine: it
// must not evaluate a statement, submit a job, or block.
func (f *Future) OnSet(fn func()) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set.Load() {
		return false
	}
	f.waiters = append(f.waiters, fn)
	return true
}

// Get blocks until the value is set or ctx ends.
func (f *Future) Get(ctx context.Context) (interface{}, error) {
	if f.set.Load() {
		return f.val, nil
	}
	f.mu.Lock()
	if f.set.Load() {
		f.mu.Unlock()
		return f.val, nil
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	f.mu.Unlock()
	select {
	case <-done:
		return f.val, nil
	case <-ctx.Done():
		return nil, f.WaitError(ctx.Err())
	}
}

// WaitError is the error of a wait on f that a context ended with cause
// instead of a value: what Get returns, and what the owner of a waiter
// registered with OnSet reports when its run is canceled.
func (f *Future) WaitError(cause error) error {
	return fmt.Errorf("dataflow: waiting for %s: %w", f.Name(), cause)
}

// TryGet returns the value if already set.
func (f *Future) TryGet() (interface{}, bool) {
	if f.set.Load() {
		return f.val, true
	}
	return nil, false
}

// IsSet reports whether the future has been written; it takes no lock.
func (f *Future) IsSet() bool { return f.set.Load() }

// Array is a sparse single-assignment array: each element is itself a
// future, created on first reference (Swift's open arrays). An array is
// "closed" when no more writes will occur; readers of the whole array block
// until closure.
type Array struct {
	mu     sync.Mutex
	elems  map[int]*Future
	closed chan struct{}
	once   sync.Once
	name   string
}

// NewArray creates an open array.
func NewArray(name string) *Array {
	return &Array{elems: make(map[int]*Future), closed: make(chan struct{}), name: name}
}

// Name returns the array's diagnostic name.
func (a *Array) Name() string { return a.name }

// Elem returns (creating if needed) the future for index i.
func (a *Array) Elem(i int) *Future {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, ok := a.elems[i]
	if !ok {
		// The element's name is formatted only if a diagnostic asks for it.
		f = &Future{name: a.name, idx: i, elem: true}
		a.elems[i] = f
	}
	return f
}

// Drop forgets element i. The caller vouches that nothing will refer to the
// element again — a later Elem(i) would mint a fresh, unset future — which the
// compiled Swift runtime can say of an element only one foreach iteration
// could reach, once that iteration has retired.
func (a *Array) Drop(i int) {
	a.mu.Lock()
	delete(a.elems, i)
	a.mu.Unlock()
}

// Close marks the array complete; idempotent.
func (a *Array) Close() { a.once.Do(func() { close(a.closed) }) }

// Closed reports whether the array is closed.
func (a *Array) Closed() bool {
	select {
	case <-a.closed:
		return true
	default:
		return false
	}
}

// Wait blocks until the array is closed, then returns the sorted indices of
// set elements.
func (a *Array) Wait(ctx context.Context) ([]int, error) {
	select {
	case <-a.closed:
	case <-ctx.Done():
		return nil, fmt.Errorf("dataflow: waiting for array %s: %w", a.name, ctx.Err())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	idx := make([]int, 0, len(a.elems))
	for i, f := range a.elems {
		if f.IsSet() {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// Len reports the number of referenced elements (set or pending).
func (a *Array) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.elems)
}

// Engine tracks the concurrent statements of one dataflow program run: a
// wait group plus first-error capture with cancellation.
type Engine struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	err       error
	holds     int  // outstanding Hold calls, counted in wg
	abandoned bool // AbandonHolds ran: Hold and Release no longer count
}

// NewEngine creates an engine under the parent context.
func NewEngine(parent context.Context) *Engine {
	ctx, cancel := context.WithCancel(parent)
	return &Engine{ctx: ctx, cancel: cancel}
}

// Context returns the engine's cancellation context.
func (e *Engine) Context() context.Context { return e.ctx }

// Go runs fn concurrently; a returned error (other than the cancellation
// it caused) is recorded and cancels the whole run.
func (e *Engine) Go(fn func(ctx context.Context) error) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if err := fn(e.ctx); err != nil {
			e.fail(err)
		}
	}()
}

func (e *Engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.cancel()
	}
	e.mu.Unlock()
}

// Fail records err as the run's failure (first error wins) and cancels the
// engine, exactly as an error returned from Go would. It lets callers that
// execute statements inline — outside Go — report into the same funnel.
func (e *Engine) Fail(err error) {
	if err != nil {
		e.fail(err)
	}
}

// Hold registers one in-flight operation that no goroutine of the engine is
// waiting on — a batched task submission whose completion arrives on an
// executor thread, a statement parked on an unset future. Wait blocks until
// every hold has been passed to Release exactly once, or AbandonHolds gives
// up on those still out.
func (e *Engine) Hold() {
	e.mu.Lock()
	if !e.abandoned {
		e.holds++
		e.wg.Add(1)
	}
	e.mu.Unlock()
}

// Release ends one Hold, reporting the operation's outcome like a return
// from Go. After AbandonHolds it does nothing, so a completion that arrives
// late needs no guard of its own.
func (e *Engine) Release(err error) {
	e.mu.Lock()
	if e.abandoned {
		e.mu.Unlock()
		return
	}
	e.holds--
	e.mu.Unlock()
	if err != nil {
		e.fail(err)
	}
	e.wg.Done()
}

// AbandonHolds gives up on every outstanding hold so that Wait can return;
// the owner of the holds calls it once the engine's context has ended. Work
// cut short this way is a failure of the run, reported with the context's
// error unless a more specific one was recorded first.
func (e *Engine) AbandonHolds() {
	e.mu.Lock()
	n := e.holds
	e.holds = 0
	e.abandoned = true
	e.mu.Unlock()
	if n == 0 {
		return
	}
	e.fail(fmt.Errorf("dataflow: %d operations still in flight: %w", n, e.ctx.Err()))
	e.wg.Add(-n)
}

// Wait blocks until all statements finish and returns the first error.
func (e *Engine) Wait() error {
	e.wg.Wait()
	e.cancel()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
