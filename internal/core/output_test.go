package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"jets/internal/dispatch"
	"jets/internal/hydra"
)

// failAfter is a writer standing in for a client that disconnects
// mid-stream: the first n writes succeed, every later one errors.
type failAfter struct {
	buf  bytes.Buffer
	n    int
	errs int
}

var errClientGone = errors.New("client disconnected")

// syncBuf is a mutex-guarded buffer so the test can poll while the router
// writes from dispatcher goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		w.errs++
		return 0, errClientGone
	}
	w.n--
	return w.buf.Write(p)
}

func TestOutputRouterChunkOrdering(t *testing.T) {
	r := NewOutputRouter()
	var a, b bytes.Buffer
	r.Attach("ta", &a)
	r.Attach("tb", &b)
	// Interleave two tasks' numbered chunks; each task's stream must come
	// out in exactly arrival order.
	for i := 0; i < 50; i++ {
		r.HandleChunk("ta", "stdout", []byte(fmt.Sprintf("a%02d.", i)))
		r.HandleChunk("tb", "stdout", []byte(fmt.Sprintf("b%02d.", i)))
	}
	for name, got := range map[string]string{"a": a.String(), "b": b.String()} {
		want := ""
		for i := 0; i < 50; i++ {
			want += fmt.Sprintf("%s%02d.", name, i)
		}
		if got != want {
			t.Fatalf("task %s stream out of order:\ngot  %q\nwant %q", name, got, want)
		}
	}
}

func TestOutputRouterConcurrentTasksKeepPerTaskOrder(t *testing.T) {
	r := NewOutputRouter()
	const tasks, chunks = 8, 200
	bufs := make([]*bytes.Buffer, tasks)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		r.Attach(fmt.Sprintf("t%d", i), bufs[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", i)
			for j := 0; j < chunks; j++ {
				r.HandleChunk(id, "stdout", []byte{byte(j)})
			}
		}(i)
	}
	wg.Wait()
	for i, buf := range bufs {
		got := buf.Bytes()
		if len(got) != chunks {
			t.Fatalf("task %d: %d chunks", i, len(got))
		}
		for j := 0; j < chunks; j++ {
			if got[j] != byte(j) {
				t.Fatalf("task %d: chunk %d reordered (got %d)", i, j, got[j])
			}
		}
	}
}

func TestOutputRouterTruncationOnDisconnect(t *testing.T) {
	r := NewOutputRouter()
	w := &failAfter{n: 3}
	var healthy bytes.Buffer
	r.Attach("gone", w)
	r.Attach("fine", &healthy)
	for i := 0; i < 10; i++ {
		r.HandleChunk("gone", "stdout", []byte{byte('0' + i)})
		r.HandleChunk("fine", "stdout", []byte{byte('0' + i)})
	}
	if got := w.buf.String(); got != "012" {
		t.Fatalf("truncated stream delivered %q, want the 3 pre-disconnect chunks", got)
	}
	if w.errs != 1 {
		t.Fatalf("writer hit %d times after failing; truncation must stop retries", w.errs)
	}
	err, cut := r.Truncated("gone")
	if !cut || !errors.Is(err, errClientGone) {
		t.Fatalf("Truncated = (%v, %v)", err, cut)
	}
	if _, cut := r.Truncated("fine"); cut {
		t.Fatal("healthy task marked truncated")
	}
	if healthy.String() != "0123456789" {
		t.Fatalf("healthy stream disturbed: %q", healthy.String())
	}
	// Re-attaching (a client reconnect) clears the truncation.
	var again bytes.Buffer
	r.Attach("gone", &again)
	r.HandleChunk("gone", "stdout", []byte("x"))
	if again.String() != "x" {
		t.Fatalf("reattached stream got %q", again.String())
	}
}

func TestOutputRouterFallbackAndDetach(t *testing.T) {
	r := NewOutputRouter()
	var fb bytes.Buffer
	r.Fallback = &fb
	r.HandleChunk("unknown", "stdout", []byte("lost?"))
	if fb.String() != "lost?" {
		t.Fatalf("fallback got %q", fb.String())
	}
	var w bytes.Buffer
	r.Attach("t", &w)
	r.HandleChunk("t", "stdout", []byte("a"))
	r.Detach("t")
	r.HandleChunk("t", "stdout", []byte("b"))
	if w.String() != "a" || fb.String() != "lost?b" {
		t.Fatalf("writer=%q fallback=%q", w.String(), fb.String())
	}
}

// TestEngineOutputThroughRouter drives the full output path: worker stdout
// -> dispatcher -> Options.OnOutput -> router -> per-task buffer, with a
// disconnecting client truncating one task while another completes.
func TestEngineOutputThroughRouter(t *testing.T) {
	r := NewOutputRouter()
	runner := hydra.NewFuncRunner()
	runner.Register("say", func(ctx context.Context, args []string, env map[string]string, stdout io.Writer) int {
		io.WriteString(stdout, args[0])
		return 0
	})
	eng, err := NewEngine(Options{
		LocalWorkers: 2,
		Runner:       runner,
		OnOutput:     r.HandleChunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var ok syncBuf
	cut := &failAfter{n: 0} // disconnected before the first chunk
	r.Attach("good/seq", &ok)
	r.Attach("bad/seq", cut)
	for _, spec := range []struct{ id, msg string }{{"good", "kept"}, {"bad", "dropped"}} {
		h, serr := eng.Submit(dispatch.Job{
			Spec: hydra.JobSpec{JobID: spec.id, NProcs: 1, Cmd: "say", Args: []string{spec.msg}},
			Type: dispatch.Sequential,
		})
		if serr != nil {
			t.Fatal(serr)
		}
		if res := h.Wait(); res.Failed {
			t.Fatalf("%s failed: %s", spec.id, res.Err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for ok.String() != "kept" {
		if time.Now().After(deadline) {
			t.Fatalf("good task output %q", ok.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Output frames are asynchronous; the bad task's first (and truncating)
	// chunk may land after the job result does.
	for {
		if _, truncated := r.Truncated("bad/seq"); truncated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnected client's task not marked truncated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cut.buf.Len() != 0 {
		t.Fatalf("truncated task delivered %q", cut.buf.String())
	}
}
