package dispatch

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"jets/internal/hydra"
)

func mkJob(id string, procs int) *Job {
	return &Job{Spec: hydra.JobSpec{JobID: id, NProcs: procs, Cmd: "x"}, Type: MPI}
}

func TestFIFOOrder(t *testing.T) {
	var q fifo
	q.Push(mkJob("a", 2))
	q.Push(mkJob("b", 1))
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
	if j := q.Next(4); j.Spec.JobID != "a" {
		t.Fatalf("got %s", j.Spec.JobID)
	}
	if j := q.Next(4); j.Spec.JobID != "b" {
		t.Fatalf("got %s", j.Spec.JobID)
	}
	if q.Next(4) != nil {
		t.Fatal("empty queue returned job")
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	var q fifo
	q.Push(mkJob("big", 8))
	q.Push(mkJob("small", 1))
	if j := q.Next(4); j != nil {
		t.Fatalf("FIFO must not overtake: got %s", j.Spec.JobID)
	}
	if j := q.Next(8); j.Spec.JobID != "big" {
		t.Fatalf("got %v", j)
	}
}

func TestFIFORequeueFront(t *testing.T) {
	var q fifo
	q.Push(mkJob("a", 1))
	q.Push(mkJob("b", 1))
	r := mkJob("retry", 1)
	q.Requeue(r)
	if j := q.Next(1); j.Spec.JobID != "retry" {
		t.Fatalf("got %s", j.Spec.JobID)
	}
}

// TestFIFORequeueDeepQueueAllocatesNothing pins the cost of a retry: putting a
// popped job back in front of a 100,000-deep queue is a store, not a copy of
// the queue.
func TestFIFORequeueDeepQueueAllocatesNothing(t *testing.T) {
	var q fifo
	for i := 0; i < 100000; i++ {
		q.Push(mkJob("j", 1))
	}
	if n := testing.AllocsPerRun(100, func() {
		q.Requeue(q.Next(1))
	}); n != 0 {
		t.Fatalf("%v allocations per pop+requeue, want 0", n)
	}
	// A storm: k jobs popped, all retried, newest pop first.
	var popped []*Job
	for i := 0; i < 1000; i++ {
		popped = append(popped, q.Next(1))
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := len(popped) - 1; i >= 0; i-- {
			q.Requeue(popped[i])
		}
		popped = popped[:0]
	}); n != 0 {
		t.Fatalf("%v allocations for a 1,000-job retry storm, want 0", n)
	}
	if q.Len() != 100000 {
		t.Fatalf("len=%d", q.Len())
	}
}

// TestFIFOMatchesReferenceSlice interleaves push, pop and requeue at random
// and checks every answer against the obvious slice implementation, through
// growth, the in-place move, the drained reset and a requeue with no room in
// front.
func TestFIFOMatchesReferenceSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo
	var ref, out []*Job
	check := func(step int) {
		t.Helper()
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 && q.Peek() != ref[0] {
			t.Fatalf("step %d: head %v, reference %v", step, q.Peek().Spec.JobID, ref[0].Spec.JobID)
		}
		if len(ref) == 0 && q.Peek() != nil {
			t.Fatalf("step %d: Peek on an empty queue", step)
		}
	}
	for step := 0; step < 200000; step++ {
		// Phases lean towards filling, then towards draining, so the queue
		// both gets deep and runs empty.
		fill := (step/20000)%2 == 0
		switch op := rng.Intn(10); {
		case op < 5 && fill, op < 3:
			j := mkJob(fmt.Sprint(step), 1)
			q.Push(j)
			ref = append(ref, j)
		case op < 9:
			j := q.Next(1)
			if len(ref) == 0 {
				if j != nil {
					t.Fatalf("step %d: popped from an empty queue", step)
				}
				break
			}
			if j != ref[0] {
				t.Fatalf("step %d: popped %v, reference %v", step, j, ref[0].Spec.JobID)
			}
			ref = ref[1:]
			out = append(out, j)
		default:
			if len(out) == 0 {
				break
			}
			j := out[len(out)-1]
			out = out[:len(out)-1]
			q.Requeue(j)
			ref = append([]*Job{j}, ref...)
		}
		check(step)
	}
}

// TestFIFOPoppedJobIsCollectable: the queue must not keep a job it has handed
// out reachable from its backing array.
func TestFIFOPoppedJobIsCollectable(t *testing.T) {
	var q fifo
	collected := make(chan struct{})
	func() {
		j := mkJob("popped", 1)
		runtime.SetFinalizer(j, func(*Job) { close(collected) })
		q.Push(j)
	}()
	q.Push(mkJob("stays", 1))
	if q.Next(1).Spec.JobID != "popped" {
		t.Fatal("wrong head")
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if q.Len() != 1 {
				t.Fatalf("len=%d", q.Len())
			}
			return
		case <-deadline:
			t.Fatal("a popped job is still reachable from the queue")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Property: the queue conserves jobs — everything pushed comes out exactly
// once given enough capacity.
func TestQueueConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		var q fifo
		n := len(sizes)
		for i, s := range sizes {
			q.Push(mkJob(fmt.Sprintf("j%d", i), int(s%8)+1))
		}
		seen := map[string]bool{}
		for j := q.Next(8); j != nil; j = q.Next(8) {
			if seen[j.Spec.JobID] {
				return false
			}
			seen[j.Spec.JobID] = true
		}
		return len(seen) == n && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
