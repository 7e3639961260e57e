package dispatch

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jets/internal/hydra"
	"jets/internal/proto"
)

// Tests of a router link (servePeer) driven by a fake router over
// proto.PipeConn: the order of its frames, and that nothing it starts outlives
// the connection.

// attachFake connects a fake router to d and sends its attach frame. It does
// not read the reply.
func attachFake(t *testing.T, d *Dispatcher, attach *proto.PeerAttach) *proto.Codec {
	t.Helper()
	fake, _ := servePipe(t, d)
	if err := fake.Send(&proto.Envelope{Kind: proto.KindPeerAttach, PeerAttach: attach}); err != nil {
		t.Fatal(err)
	}
	return fake
}

// expectAttached reads the fake router's first frame, which must be the
// attach reply.
func expectAttached(t *testing.T, fake *proto.Codec) *proto.PeerInfo {
	t.Helper()
	env, err := fake.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != proto.KindPeerAttached {
		t.Fatalf("first frame on the router link is %q, want %q", env.Kind, proto.KindPeerAttached)
	}
	return env.PeerInfo
}

// settledGoroutines is the goroutine count once it has held for 20 ms.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); same < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// goroutinesBackTo fails the test unless the goroutine count falls to want
// within 2 s.
func goroutinesBackTo(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerDetachLeavesNoGoroutines: a router that attaches and closes its
// link leaves nothing behind on the dispatcher's side. servePeer used to
// wait for the load-report goroutine before telling it to quit, so it never
// returned, and the ticker kept queueing reports that nothing wrote.
func TestPeerDetachLeavesNoGoroutines(t *testing.T) {
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g0 := settledGoroutines()
	fake := attachFake(t, d, &proto.PeerAttach{PeerID: "r", LoadEvery: 5 * time.Millisecond})
	expectAttached(t, fake)
	if env, err := fake.Recv(); err != nil || env.Kind != proto.KindLoadReport {
		t.Fatalf("second frame: %+v, %v; want a load report", env, err)
	}
	fake.Close()
	goroutinesBackTo(t, g0, "after the router detached")
}

// TestGoroutinesPerIdlePeerLink pins what an attached router link costs at
// rest: its reader and its load ticker. The link's outbox runs a goroutine
// only while frames wait to be written. Nothing remains once the router
// disconnects.
func TestGoroutinesPerIdlePeerLink(t *testing.T) {
	const links, want = 8, 2
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g0 := settledGoroutines()
	fakes := make([]*proto.Codec, links)
	for i := range fakes {
		fakes[i] = attachFake(t, d, &proto.PeerAttach{PeerID: fmt.Sprint("r", i), LoadEvery: time.Hour})
		expectAttached(t, fakes[i])
	}
	g1 := settledGoroutines()
	perLink := float64(g1-g0) / links
	t.Logf("%.2f goroutines per idle router link", perLink)
	if perLink != want {
		t.Fatalf("%.2f goroutines per idle router link, want %d", perLink, want)
	}
	for _, f := range fakes {
		f.Close()
	}
	goroutinesBackTo(t, g0, "after every router disconnected")
}

// TestPeerAttachedPrecedesJobDone: the attach reply is the first frame on a
// router link even when a job the router asked about completes while the
// dispatcher is still looking up the rest of the attach set. Completion
// callbacks used to be wired during that lookup, and a completion written
// before the reply made the router drop the link and later resubmit a job
// that had already run. Four running jobs come first in a long attach set
// of stale IDs. A first attach times the whole exchange, and the later ones
// release the jobs at delays swept across it, so the sweep covers the lookup
// at any speed, race detector included.
func TestPeerAttachedPrecedesJobDone(t *testing.T) {
	const (
		workers = 4
		stale   = 100_000
		steps   = 20
	)
	var gateMu sync.Mutex
	gates := map[string]chan struct{}{}
	started := make(chan string, workers)
	runner := hydra.NewFuncRunner()
	runner.Register("gate", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		gateMu.Lock()
		g := gates[args[0]]
		gateMu.Unlock()
		started <- args[0]
		select {
		case <-g:
		case <-ctx.Done():
		}
		return 0
	})
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	startPipeWorkers(t, d, workers, runner)

	outstanding := make([]string, workers, workers+stale)
	for i := 0; i < stale; i++ {
		outstanding = append(outstanding, fmt.Sprintf("stale-%d", i))
	}
	// attach runs one round: four jobs start, a fake router attaches with
	// their IDs first, and the jobs are released after delay (after the
	// reply when delay is negative). It returns the first frame's kind and
	// how long the reply took.
	attach := func(round int, delay time.Duration) (proto.Kind, time.Duration) {
		key := fmt.Sprint("round", round)
		gate := make(chan struct{})
		gateMu.Lock()
		gates[key] = gate
		gateMu.Unlock()
		for i := 0; i < workers; i++ {
			outstanding[i] = fmt.Sprintf("%s-job%d", key, i)
			if _, err := d.Submit(Job{Spec: hydra.JobSpec{JobID: outstanding[i], NProcs: 1, Cmd: "gate", Args: []string{key}}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < workers; i++ {
			<-started
		}
		var once sync.Once
		open := func() { once.Do(func() { close(gate) }) }
		defer open()

		fake, served := proto.Pipe()
		defer fake.Close()
		d.ServeConn(served)
		begin := time.Now()
		if delay >= 0 {
			defer time.AfterFunc(delay, open).Stop()
		}
		if err := fake.Send(&proto.Envelope{Kind: proto.KindPeerAttach, PeerAttach: &proto.PeerAttach{
			PeerID: "r", Outstanding: outstanding, LoadEvery: time.Hour,
		}}); err != nil {
			t.Fatal(err)
		}
		env, err := fake.Recv()
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(begin)
		if env.Kind != proto.KindPeerAttached {
			return env.Kind, took
		}
		open()
		// Every job reported live gets exactly one completion.
		want := map[string]bool{}
		for _, id := range env.PeerInfo.Live {
			want[id] = true
		}
		for len(want) > 0 {
			env, err := fake.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if env.Kind != proto.KindJobDone || !want[env.JobDone.JobID] {
				t.Fatalf("unexpected %q frame %+v; waiting for %v", env.Kind, env.JobDone, want)
			}
			delete(want, env.JobDone.JobID)
		}
		return env.Kind, took
	}
	settle := func() { waitFor(t, func() bool { return d.IdleWorkers() == workers }) }

	_, span := attach(0, -1)
	settle()
	late := 0
	for i := 0; i <= steps; i++ {
		delay := span * time.Duration(i) / steps
		if kind, _ := attach(i+1, delay); kind != proto.KindPeerAttached {
			late++
			t.Errorf("release after %v of %v: first frame %q, want %q", delay, span, kind, proto.KindPeerAttached)
		}
		settle()
	}
	if late > 0 {
		t.Fatalf("%d of %d attaches saw a completion before the attach reply", late, steps+1)
	}
}

// TestStalledPeerCannotHoldLink: a router that stops reading while a large
// steal reply is being written, then sends a frame that does not decode,
// loses its link at once. The reader returns without waiting for the
// blocked write, and the connection's close fails that write, so no
// goroutine of the link is left.
func TestStalledPeerCannotHoldLink(t *testing.T) {
	const jobs = 8
	d := New(Config{})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g0 := settledGoroutines()
	fake, raw := servePipe(t, d)
	if err := fake.Send(&proto.Envelope{Kind: proto.KindPeerAttach, PeerAttach: &proto.PeerAttach{PeerID: "r", LoadEvery: time.Hour}}); err != nil {
		t.Fatal(err)
	}
	expectAttached(t, fake)
	arg := strings.Repeat("x", 64<<10)
	for i := 0; i < jobs; i++ {
		if err := fake.Send(&proto.Envelope{Kind: proto.KindPeerSubmit, PeerSubmit: &proto.PeerSubmit{
			JobID: fmt.Sprint("big", i), NProcs: 1, Cmd: "app", Args: []string{arg},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { q, _, _, _ := d.Load(); return q == jobs })
	// The reply carries about 2 × PipeBuffer, so its write blocks while the
	// fake does not read.
	if err := fake.Send(&proto.Envelope{Kind: proto.KindStealRequest, StealRequest: &proto.StealRequest{Max: jobs, Dest: "elsewhere"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { q, _, _, _ := d.Load(); return q == 0 })
	// A result frame that does not decode ends the reader.
	if _, err := raw.Write(undecodable(3)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for fake.Send(&proto.Envelope{Kind: proto.KindHeartbeat}) == nil {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the dispatcher still holds the link of a router that stopped reading")
	}
	goroutinesBackTo(t, g0, "after the stalled router's link closed")
}
