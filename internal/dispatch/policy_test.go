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

func mkJob(id string, procs, prio int) *Job {
	return &Job{Spec: hydra.JobSpec{JobID: id, NProcs: procs, Cmd: "x"}, Type: MPI, Priority: prio}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFOQueue()
	q.Push(mkJob("a", 2, 0))
	q.Push(mkJob("b", 1, 9)) // priority ignored by FIFO
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
	q := NewFIFOQueue()
	q.Push(mkJob("big", 8, 0))
	q.Push(mkJob("small", 1, 0))
	if j := q.Next(4); j != nil {
		t.Fatalf("FIFO must not overtake: got %s", j.Spec.JobID)
	}
	if j := q.Next(8); j.Spec.JobID != "big" {
		t.Fatalf("got %v", j)
	}
}

func TestFIFORequeueFront(t *testing.T) {
	q := NewFIFOQueue()
	q.Push(mkJob("a", 1, 0))
	q.Push(mkJob("b", 1, 0))
	r := mkJob("retry", 1, 0)
	q.Requeue(r)
	if j := q.Next(1); j.Spec.JobID != "retry" {
		t.Fatalf("got %s", j.Spec.JobID)
	}
}

// TestFIFORequeueDeepQueueAllocatesNothing pins the cost of a retry: putting a
// popped job back in front of a 100,000-deep queue is a store, not a copy of
// the queue.
func TestFIFORequeueDeepQueueAllocatesNothing(t *testing.T) {
	q := NewFIFOQueue()
	for i := 0; i < 100000; i++ {
		q.Push(mkJob("j", 1, 0))
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
	q := NewFIFOQueue()
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
			j := mkJob(fmt.Sprint(step), 1, 0)
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
	q := NewFIFOQueue()
	collected := make(chan struct{})
	func() {
		j := mkJob("popped", 1, 0)
		runtime.SetFinalizer(j, func(*Job) { close(collected) })
		q.Push(j)
	}()
	q.Push(mkJob("stays", 1, 0))
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

func TestPriorityOrdering(t *testing.T) {
	q := NewPriorityQueue(false)
	q.Push(mkJob("low", 1, 1))
	q.Push(mkJob("high", 1, 5))
	q.Push(mkJob("mid", 1, 3))
	var got []string
	for j := q.Next(8); j != nil; j = q.Next(8) {
		got = append(got, j.Spec.JobID)
	}
	want := []string{"high", "mid", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestPriorityStableWithinLevel(t *testing.T) {
	q := NewPriorityQueue(false)
	for i := 0; i < 5; i++ {
		q.Push(mkJob(fmt.Sprintf("j%d", i), 1, 7))
	}
	for i := 0; i < 5; i++ {
		j := q.Next(8)
		if j.Spec.JobID != fmt.Sprintf("j%d", i) {
			t.Fatalf("position %d: got %s", i, j.Spec.JobID)
		}
	}
}

func TestPriorityNoBackfillBlocks(t *testing.T) {
	q := NewPriorityQueue(false)
	q.Push(mkJob("big-high", 8, 5))
	q.Push(mkJob("small-low", 1, 1))
	if j := q.Next(4); j != nil {
		t.Fatalf("no-backfill queue overtook head: %s", j.Spec.JobID)
	}
}

func TestPriorityBackfill(t *testing.T) {
	q := NewPriorityQueue(true)
	q.Push(mkJob("big-high", 8, 5))
	q.Push(mkJob("small-low", 1, 1))
	j := q.Next(4)
	if j == nil || j.Spec.JobID != "small-low" {
		t.Fatalf("backfill did not pick fitting job: %v", j)
	}
	// The blocked head is still there.
	if q.Peek().Spec.JobID != "big-high" {
		t.Fatalf("head lost")
	}
}

func TestPriorityRequeueAhead(t *testing.T) {
	q := NewPriorityQueue(false)
	q.Push(mkJob("a", 1, 3))
	r := mkJob("retry", 1, 3)
	q.Requeue(r)
	if j := q.Next(8); j.Spec.JobID != "retry" {
		t.Fatalf("got %s", j.Spec.JobID)
	}
}

func TestFCFSGroup(t *testing.T) {
	idx := FirstComeFirstServed(nil, make([][]int, 5), 3)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("got %v", idx)
	}
}

func TestTopologyAwarePrefersNearby(t *testing.T) {
	// Workers at torus coordinates; index 0 seeds the group. Indexes 2,3 are
	// adjacent to 0; index 1 is far away.
	coords := [][]int{
		{0, 0, 0}, // seed
		{7, 7, 7}, // far
		{0, 0, 1}, // near
		{1, 0, 0}, // near
	}
	idx := TopologyAware(nil, coords, 3)
	if len(idx) != 3 {
		t.Fatalf("got %v", idx)
	}
	chosen := map[int]bool{}
	for _, i := range idx {
		chosen[i] = true
	}
	if !chosen[0] || !chosen[2] || !chosen[3] || chosen[1] {
		t.Fatalf("got %v; want {0,2,3}", idx)
	}
}

func TestTopologyAwareHandlesMissingCoords(t *testing.T) {
	coords := [][]int{{0, 0}, nil, {0, 1}, nil}
	idx := TopologyAware(nil, coords, 2)
	chosen := map[int]bool{}
	for _, i := range idx {
		chosen[i] = true
	}
	if !chosen[0] || !chosen[2] {
		t.Fatalf("got %v; workers with coordinates should group first", idx)
	}
}

func TestManhattan(t *testing.T) {
	if d := manhattan([]int{1, 2, 3}, []int{4, 0, 3}); d != 5 {
		t.Fatalf("d=%d", d)
	}
	if d := manhattan(nil, []int{1}); d < 1<<19 {
		t.Fatalf("missing coords should be penalized, d=%d", d)
	}
	if d := manhattan([]int{1}, []int{1, 2}); d < 1<<19 {
		t.Fatalf("mismatched dims should be penalized, d=%d", d)
	}
}

// Property: both queue policies conserve jobs — everything pushed comes out
// exactly once given enough capacity.
func TestQueueConservationProperty(t *testing.T) {
	f := func(sizes []uint8, usePrio, backfill bool) bool {
		var q QueuePolicy
		if usePrio {
			q = NewPriorityQueue(backfill)
		} else {
			q = NewFIFOQueue()
		}
		n := len(sizes)
		for i, s := range sizes {
			q.Push(mkJob(fmt.Sprintf("j%d", i), int(s%8)+1, int(s%3)))
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

// Property: TopologyAware always returns n distinct valid indexes.
func TestTopologyAwareValidProperty(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		coords := make([][]int, len(raw))
		for i, v := range raw {
			coords[i] = []int{int(v % 8), int(v / 8 % 8), int(v / 64)}
		}
		n := int(nRaw)%len(coords) + 1
		idx := TopologyAware(nil, coords, n)
		if len(idx) != n {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= len(coords) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
