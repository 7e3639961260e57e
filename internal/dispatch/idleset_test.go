package dispatch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

func TestIdleSetBasics(t *testing.T) {
	var s idleSet
	ws := make([]*workerConn, 8)
	for i := range ws {
		ws[i] = &workerConn{id: string(rune('a' + i)), reg: protoRegister(i)}
	}
	for _, w := range ws {
		if !s.Add(w) {
			t.Fatalf("fresh Add(%s) = false", w.id)
		}
	}
	if s.Add(ws[3]) {
		t.Fatal("duplicate Add accepted")
	}
	if s.Len() != 8 {
		t.Fatalf("len=%d", s.Len())
	}
	if !s.Remove(ws[2]) || s.Remove(ws[2]) {
		t.Fatal("Remove semantics broken")
	}
	if s.Contains(ws[2]) || !s.Contains(ws[4]) {
		t.Fatal("Contains out of sync")
	}
	checkIdleInvariant(t, &s)
	// Removal keeps the others in arrival order.
	want := []*workerConn{ws[0], ws[1], ws[3], ws[4], ws[5], ws[6], ws[7]}
	if got := s.appendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("order after remove: %v", ids(got))
	}
	// A worker is parked in at most one set.
	var other idleSet
	if other.Add(ws[4]) || other.Remove(ws[4]) {
		t.Fatal("a worker parked in one set was accepted by another")
	}
}

func TestIdleSetTake(t *testing.T) {
	var s idleSet
	ws := make([]*workerConn, 10)
	for i := range ws {
		ws[i] = &workerConn{reg: protoRegister(i)}
		s.Add(ws[i])
	}
	group := take(&s, []int{9, 0, 4})
	if len(group) != 3 || group[0] != ws[9] || group[1] != ws[0] || group[2] != ws[4] {
		t.Fatalf("take returned wrong workers")
	}
	if s.Len() != 7 {
		t.Fatalf("len=%d after take", s.Len())
	}
	for _, wc := range group {
		if s.Contains(wc) {
			t.Fatal("taken worker still idle")
		}
	}
	checkIdleInvariant(t, &s)
}

// TestIdleSetFCFSOrder: workers parked a, b, c, d, e and taken one at a time
// by FirstComeFirstServed leave in the order they parked. A set that swaps its
// tail into a removed slot hands out a, e, d, c, b: the most recently parked
// worker first.
func TestIdleSetFCFSOrder(t *testing.T) {
	var s idleSet
	ws := make([]*workerConn, 5)
	for i := range ws {
		ws[i] = &workerConn{id: string(rune('a' + i))}
		s.Add(ws[i])
	}
	var got []*workerConn
	for s.Len() > 0 {
		coords := make([][]int, s.Len())
		got = append(got, take(&s, FirstComeFirstServed(nil, coords, 1))...)
	}
	if !slices.Equal(got, ws) {
		t.Fatalf("FCFS took %v, want %v", ids(got), ids(ws))
	}
}

// TestIdleSetRandomized churns the set with a mixed add/remove/take workload
// and checks the list against a model of arrival order after every step.
func TestIdleSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s idleSet
	var model []*workerConn
	pool := make([]*workerConn, 256)
	for i := range pool {
		pool[i] = &workerConn{reg: protoRegister(i)}
	}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(3) {
		case 0:
			wc := pool[rng.Intn(len(pool))]
			if s.Add(wc) {
				model = append(model, wc)
			}
		case 1:
			wc := pool[rng.Intn(len(pool))]
			if s.Remove(wc) {
				model = slices.DeleteFunc(model, func(m *workerConn) bool { return m == wc })
			}
		case 2:
			if n := s.Len(); n > 0 {
				k := rng.Intn(n) + 1
				sel := rng.Perm(n)[:k]
				for _, wc := range take(&s, sel) {
					model = slices.DeleteFunc(model, func(m *workerConn) bool { return m == wc })
				}
			}
		}
		checkIdleInvariant(t, &s)
		if got := s.appendTo(nil); !slices.Equal(got, model) {
			t.Fatalf("step %d: list diverged from arrival order", step)
		}
	}
}

// TestGroupOrderIsParkOrder: on a live dispatcher, sequential jobs submitted
// one after another go to the workers in the order the workers parked.
func TestGroupOrderIsParkOrder(t *testing.T) {
	rec := &TraceRecorder{}
	d := New(Config{Shards: 1, OnEvent: rec.Record})
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 5
	for i := 0; i < n; i++ {
		rawWorker(t, addr, fmt.Sprintf("w%d", i), nil)
		waitFor(t, func() bool { return d.IdleWorkers() == i+1 })
	}
	for i := 0; i < n; i++ {
		if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return rec.Count(EvTaskSent) == n })
	for _, e := range rec.Events() {
		if e.Kind != EvTaskSent {
			continue
		}
		var i int
		fmt.Sscanf(e.JobID, "j%d", &i)
		if want := fmt.Sprintf("w%d", i); e.WorkerID != want {
			t.Errorf("job %s went to %s, want %s: jobs go to workers in the order they parked", e.JobID, e.WorkerID, want)
		}
	}
}

// take removes the workers at sel, indexes into the set's arrival order,
// and returns them in sel's order.
func take(s *idleSet, sel []int) []*workerConn {
	list := s.appendTo(nil)
	group := make([]*workerConn, len(sel))
	for i, idx := range sel {
		group[i] = list[idx]
	}
	for _, wc := range group {
		s.Remove(wc)
	}
	return group
}

// checkIdleInvariant walks the list both ways and checks the links, the
// membership marks and the count.
func checkIdleInvariant(t *testing.T, s *idleSet) {
	t.Helper()
	n := 0
	var prev *workerConn
	for wc := s.head; wc != nil; wc = wc.idleNext {
		if wc.idlePrev != prev || wc.idleIn != s {
			t.Fatalf("broken link at element %d", n)
		}
		prev = wc
		n++
	}
	if prev != s.tail || n != s.Len() {
		t.Fatalf("walked %d workers, Len %d; tail ok %v", n, s.Len(), prev == s.tail)
	}
}

func ids(ws []*workerConn) []string {
	out := make([]string, len(ws))
	for i, wc := range ws {
		out[i] = wc.id
	}
	return out
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func protoRegister(i int) proto.Register {
	return proto.Register{Coord: []int{i%8 + 1, (i/8)%8 + 1, i/64 + 1}}
}
