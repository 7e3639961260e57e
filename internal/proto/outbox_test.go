package proto

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// idle reports whether o has nothing queued and nobody writing.
func (o *Outbox) idle() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return !o.writing && len(o.q) == 0
}

// waitIdle fails the test unless o goes idle within 5 s.
func waitIdle(t *testing.T, o *Outbox) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !o.idle(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the outbox kept its write side after it emptied")
		}
	}
}

// TestOutboxConcurrentPushesKeepOrder drives one outbox from several
// goroutines at once: four append frames, one writes tasks inline whenever
// the outbox is idle. Every frame arrives, each goroutine's in the order it
// pushed them, and the write side is free again once the outbox is empty.
func TestOutboxConcurrentPushesKeepOrder(t *testing.T) {
	reader, served := Pipe()
	defer reader.Close()
	o := NewOutbox(served, 1024)
	const pushers, frames = 4, 500
	got := make(chan map[string]int, 1)
	go func() {
		next := map[string]int{}
		for n := 0; n < (pushers+1)*frames; n++ {
			env, err := reader.Recv()
			if err != nil {
				t.Error(err)
				break
			}
			var who string
			var i int
			switch env.Kind {
			case KindError:
				fmt.Sscanf(env.Error, "%s %d", &who, &i)
			case KindTask:
				who, i = "task", env.Task.Rank
			}
			if i != next[who] {
				t.Errorf("%s: frame %d arrived when %d was due", who, i, next[who])
			}
			next[who] = i + 1
		}
		got <- next
	}()
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				for !o.Push(&Envelope{Kind: KindError, Error: fmt.Sprintf("p%d %d", p, i)}) {
					time.Sleep(time.Millisecond) // outbox full: let the drain catch up
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			task := Task{TaskID: "t", JobID: "j", Rank: i}
			for !o.SendOrPush(&Envelope{Kind: KindTask, Task: &task}) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	select {
	case next := <-got:
		for _, who := range []string{"p0", "p1", "p2", "p3", "task"} {
			if next[who] != frames {
				t.Errorf("%s: %d frames arrived, want %d", who, next[who], frames)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frames missing: the outbox kept some without a writer")
	}
	waitIdle(t, o)
}

// TestOutboxRefusesWhenFullOrClosed: a push past the bound or after Close
// is refused. While a writer holds the outbox, a push only queues.
func TestOutboxRefusesWhenFullOrClosed(t *testing.T) {
	reader, served := Pipe()
	defer reader.Close()
	o := NewOutbox(served, 2)
	o.writing = true // a writer that has not come back yet
	for i := 0; i < 2; i++ {
		if !o.Push(&Envelope{Kind: KindHeartbeat}) {
			t.Fatalf("push %d refused below the bound", i)
		}
	}
	if o.Push(&Envelope{Kind: KindShutdown}) || o.SendOrPush(&Envelope{Kind: KindShutdown}) {
		t.Fatal("a push past the bound was accepted")
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2", o.Len())
	}
	o.mu.Lock()
	o.q, o.writing = nil, false
	o.mu.Unlock()

	o.Close()
	if o.Push(&Envelope{Kind: KindShutdown}) || o.SendOrPush(&Envelope{Kind: KindShutdown}) {
		t.Fatal("a closed outbox accepted a frame")
	}
}

// TestOutboxFailedWriteReleasesFrames: a drain whose write fails closes the
// connection, drops every frame behind the failure and gives up the write
// side, so no goroutine outlives the queue.
func TestOutboxFailedWriteReleasesFrames(t *testing.T) {
	reader, served := Pipe()
	reader.Close()
	o := NewOutbox(served, 0)
	for i := 0; i < 100; i++ {
		o.Push(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "t", Stream: "stdout", Data: []byte("x")}})
	}
	waitIdle(t, o)
	if err := served.Send(&Envelope{Kind: KindShutdown}); err == nil {
		t.Fatal("the connection is still open after a failed write")
	}
}
