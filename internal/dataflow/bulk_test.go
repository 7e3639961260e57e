package dataflow

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewFutures(t *testing.T) {
	names := []string{"a", "b", "c"}
	futs := NewFutures(names)
	if len(futs) != 3 {
		t.Fatalf("got %d futures", len(futs))
	}
	for i, f := range futs {
		if f.Name() != names[i] {
			t.Fatalf("future %d named %q", i, f.Name())
		}
		if f.IsSet() {
			t.Fatalf("future %q born set", f.Name())
		}
	}
	// Futures are independent despite the shared backing allocation.
	if err := futs[1].Set(7); err != nil {
		t.Fatal(err)
	}
	if futs[0].IsSet() || futs[2].IsSet() {
		t.Fatal("setting one future leaked into a sibling")
	}
	v, err := futs[1].Get(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("got %v, %v", v, err)
	}
}

func TestEngineHoldBlocksWait(t *testing.T) {
	eng := NewEngine(context.Background())
	eng.Hold()
	done := make(chan error, 1)
	go func() { done <- eng.Wait() }()
	select {
	case <-done:
		t.Fatal("Wait returned while a hold was outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	eng.Release(nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned after release")
	}
}

func TestEngineHoldReleaseError(t *testing.T) {
	eng := NewEngine(context.Background())
	eng.Hold()
	boom := errors.New("boom")
	eng.Release(boom)
	if err := eng.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want %v", err, boom)
	}
}

func TestEngineAbandonHolds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := NewEngine(ctx)
	for i := 0; i < 3; i++ {
		eng.Hold()
	}
	eng.Release(nil)
	done := make(chan error, 1)
	go func() { done <- eng.Wait() }()
	cancel()
	eng.AbandonHolds()
	select {
	case err := <-done:
		// Work cut short is a failure of the run, not a silent success.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait() = %v, want the context's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned after AbandonHolds")
	}
	// A completion that arrives late, and a hold taken late, must be no-ops,
	// not a WaitGroup underflow or a Wait that can never be satisfied.
	eng.Release(errors.New("late"))
	eng.Release(nil)
	eng.Hold()
	if err := eng.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Wait() = %v", err)
	}
}

func TestEngineFail(t *testing.T) {
	eng := NewEngine(context.Background())
	boom := errors.New("boom")
	eng.Fail(boom)
	eng.Fail(errors.New("second error loses"))
	eng.Fail(nil) // no-op
	if err := eng.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want first failure %v", err, boom)
	}
	select {
	case <-eng.Context().Done():
	default:
		t.Fatal("Fail did not cancel the engine context")
	}
}

func TestOnSetAfterSetReportsFalse(t *testing.T) {
	f := NewFuture("x")
	if err := f.Set(1); err != nil {
		t.Fatal(err)
	}
	if f.OnSet(func() { t.Error("waiter registered on a set future ran") }) {
		t.Fatal("OnSet on a set future reported true")
	}
}

func TestOnSetWaitersRunOnceOutsideTheLock(t *testing.T) {
	f := NewFuture("x")
	var ran [3]int
	for i := range ran {
		i := i
		ok := f.OnSet(func() {
			ran[i]++
			// Every method takes the future's lock; under it these would hang.
			if v, ok := f.TryGet(); !ok || v != "v" {
				t.Errorf("waiter %d saw %v, %v", i, v, ok)
			}
			if err := f.Set("again"); !errors.Is(err, ErrAlreadySet) {
				t.Errorf("Set from waiter %d: %v", i, err)
			}
			if f.OnSet(func() {}) {
				t.Errorf("OnSet from waiter %d registered on a set future", i)
			}
		})
		if !ok {
			t.Fatalf("OnSet %d on an unset future reported false", i)
		}
	}
	if err := f.Set("v"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("w"); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("second Set: %v", err)
	}
	if ran != [3]int{1, 1, 1} {
		t.Fatalf("waiters ran %v times, want once each", ran)
	}
}

// TestOnSetRacesSet registers waiters while another goroutine sets: each one
// either runs exactly once or is turned away with false, never both or neither.
func TestOnSetRacesSet(t *testing.T) {
	for round := 0; round < 200; round++ {
		f := NewFuture("x")
		const waiters = 4
		var ran, refused atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !f.OnSet(func() { ran.Add(1) }) {
					refused.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Set(round)
		}()
		wg.Wait()
		if ran.Load()+refused.Load() != waiters {
			t.Fatalf("round %d: %d ran + %d refused, want %d in total", round, ran.Load(), refused.Load(), waiters)
		}
	}
}

// TestGetAllocatesItsChannelLazily: a future is born without a channel, the
// first blocked Get makes one, and Set wakes every Get parked on it.
func TestGetAllocatesItsChannelLazily(t *testing.T) {
	f := NewFutures([]string{"x"})[0]
	if f.done != nil {
		t.Fatal("future born with a channel")
	}
	const readers = 8
	got := make(chan interface{}, readers)
	for i := 0; i < readers; i++ {
		go func() {
			v, err := f.Get(context.Background())
			if err != nil {
				t.Error(err)
			}
			got <- v
		}()
	}
	// Wait for the event itself: a reader has had to block.
	for deadline := time.Now().Add(5 * time.Second); ; {
		f.mu.Lock()
		blocked := f.done != nil
		f.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reader ever blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Set("v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readers; i++ {
		select {
		case v := <-got:
			if v != "v" {
				t.Fatalf("reader got %v", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d readers woke", i, readers)
		}
	}
	// After Set, Get neither blocks nor needs the channel.
	if v, err := NewFuture("y").Get(canceledCtx()); err == nil {
		t.Fatalf("Get on an unset future under a canceled context returned %v", v)
	}
	if v, err := f.Get(canceledCtx()); err != nil || v != "v" {
		t.Fatalf("Get on a set future: %v, %v", v, err)
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestArrayElemNamedLazily(t *testing.T) {
	a := NewArray("raw")
	if got := a.Elem(7).Name(); got != "raw[7]" {
		t.Fatalf("element named %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := a.Elem(7).Get(ctx)
	if err == nil || !strings.Contains(err.Error(), "waiting for raw[7]") {
		t.Fatalf("Get error %v does not name the element", err)
	}
}
