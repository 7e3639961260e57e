package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFutureSetGet(t *testing.T) {
	f := NewFuture("x")
	if f.IsSet() {
		t.Fatal("new future set")
	}
	done := make(chan interface{}, 1)
	go func() {
		v, err := f.Get(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	if err := f.Set(42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never woke")
	}
}

func TestFutureDoubleSet(t *testing.T) {
	f := NewFuture("x")
	f.Set(1)
	if err := f.Set(2); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("got %v", err)
	}
	if v, _ := f.TryGet(); v != 1 {
		t.Fatalf("second set overwrote: %v", v)
	}
}

func TestFutureGetCancel(t *testing.T) {
	f := NewFuture("x")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.Get(ctx); err == nil {
		t.Fatal("want context error")
	}
}

func TestFutureManyReaders(t *testing.T) {
	f := NewFuture("x")
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Get(context.Background())
			if err != nil || v != "v" {
				errs <- fmt.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	f.Set("v")
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestArrayElemIdentity(t *testing.T) {
	a := NewArray("a")
	if a.Elem(3) != a.Elem(3) {
		t.Fatal("Elem not stable")
	}
	if a.Len() != 1 {
		t.Fatalf("len=%d", a.Len())
	}
}

func TestArrayDrop(t *testing.T) {
	a := NewArray("a")
	first := a.Elem(3)
	first.Set(1)
	a.Elem(4)
	a.Drop(3)
	a.Drop(99) // never referenced: nothing to forget
	if a.Len() != 1 {
		t.Fatalf("Len = %d after dropping one of two elements", a.Len())
	}
	// The dropped future is untouched for whoever still holds it; the index
	// starts over.
	if v, ok := first.TryGet(); !ok || v != 1 {
		t.Fatalf("dropped element reads %v, %v", v, ok)
	}
	if again := a.Elem(3); again == first || again.IsSet() {
		t.Fatal("Elem after Drop returned the old future")
	}
}

func TestArrayWaitAfterClose(t *testing.T) {
	a := NewArray("a")
	a.Elem(2).Set("x")
	a.Elem(0).Set("y")
	a.Elem(5) // referenced, never set
	a.Close()
	a.Close() // idempotent
	idx, err := a.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("idx=%v", idx)
	}
	if !a.Closed() {
		t.Fatal("not closed")
	}
}

func TestArrayWaitBlocksUntilClose(t *testing.T) {
	a := NewArray("a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Wait(ctx); err == nil {
		t.Fatal("wait returned before close")
	}
}

func TestEngineCollectsFirstError(t *testing.T) {
	e := NewEngine(context.Background())
	boom := errors.New("boom")
	e.Go(func(ctx context.Context) error { return boom })
	e.Go(func(ctx context.Context) error {
		<-ctx.Done() // must be cancelled by the failure
		return ctx.Err()
	})
	if err := e.Wait(); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestEngineSuccess(t *testing.T) {
	e := NewEngine(context.Background())
	var n sync.WaitGroup
	count := 0
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		n.Add(1)
		e.Go(func(ctx context.Context) error {
			defer n.Done()
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("count=%d", count)
	}
}

// TestDataflowDiamond wires the classic diamond dependency a -> (b, c) -> d
// through futures and engine statements declared in arbitrary order.
func TestDataflowDiamond(t *testing.T) {
	a, b, c, d := NewFuture("a"), NewFuture("b"), NewFuture("c"), NewFuture("d")
	e := NewEngine(context.Background())
	// Declare d's statement first: dependencies alone must order execution.
	e.Go(func(ctx context.Context) error {
		bv, err := b.Get(ctx)
		if err != nil {
			return err
		}
		cv, err := c.Get(ctx)
		if err != nil {
			return err
		}
		return d.Set(bv.(int) + cv.(int))
	})
	e.Go(func(ctx context.Context) error {
		av, err := a.Get(ctx)
		if err != nil {
			return err
		}
		return b.Set(av.(int) * 2)
	})
	e.Go(func(ctx context.Context) error {
		av, err := a.Get(ctx)
		if err != nil {
			return err
		}
		return c.Set(av.(int) + 1)
	})
	e.Go(func(ctx context.Context) error { return a.Set(10) })
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	v, _ := d.TryGet()
	if v != 31 {
		t.Fatalf("d=%v want 31", v)
	}
}

// Property: futures deliver exactly the value set, for arbitrary payloads.
func TestFutureRoundTripProperty(t *testing.T) {
	f := func(s string, i int64) bool {
		fut := NewFuture("p")
		if fut.Set([2]interface{}{s, i}) != nil {
			return false
		}
		v, err := fut.Get(context.Background())
		if err != nil {
			return false
		}
		arr := v.([2]interface{})
		return arr[0] == s && arr[1] == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent double-set never loses the first value and exactly
// one setter wins.
func TestFutureRaceProperty(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		f := NewFuture("r")
		var wins sync.Map
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if f.Set(i) == nil {
					wins.Store(i, true)
				}
			}(i)
		}
		wg.Wait()
		count := 0
		wins.Range(func(k, v interface{}) bool { count++; return true })
		if count != 1 {
			t.Fatalf("trial %d: %d winners", trial, count)
		}
	}
}
