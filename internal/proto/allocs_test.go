package proto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"
)

// loopReader serves the same bytes over and over: an endless stream of one
// frame for the receive-side counts.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// wireOf is the encoded frame (length prefix included) of e.
func wireOf(t *testing.T, e *Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewCodec(&buf).Send(e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testTask() *Task {
	return &Task{TaskID: "j17/seq", JobID: "j17", Cmd: "noop", WallLimit: time.Minute}
}

func testResult() *Result {
	return &Result{TaskID: "j17/seq", JobID: "j17", Elapsed: time.Millisecond}
}

// TestCodecAllocs pins the allocations of the frames every job crosses the
// wire in: encoding a task or a result frame allocates nothing, and decoding
// one allocates the envelope with its payload as one object plus one shared
// copy of the frame's strings.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own behalf")
	}
	send := NewCodec(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	for name, e := range map[string]*Envelope{
		"task":   {Kind: KindTask, Task: testTask()},
		"result": {Kind: KindResult, Result: testResult()},
	} {
		t.Run("encode-"+name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() { send.SendBuffered(e) }); n != 0 {
				t.Errorf("encoding a %s frame: %.1f allocations, want 0", name, n)
			}
		})
		t.Run("decode-"+name, func(t *testing.T) {
			recv := NewCodec(struct {
				io.Reader
				io.Writer
			}{&loopReader{frame: wireOf(t, e)}, io.Discard})
			n := testing.AllocsPerRun(1000, func() {
				if _, err := recv.Recv(); err != nil {
					t.Fatal(err)
				}
			})
			if n != 2 {
				t.Errorf("decoding a %s frame: %.1f allocations, want 2", name, n)
			}
		})
	}
}

// TestDecodedBodyOutlivesFrame: a task or result decoded by Recv shares one
// allocation with its envelope and one copy of its strings, none of it in
// the pooled buffer the frame was read into. It stays intact after the next
// frame, no larger and with different bytes, is read into that buffer.
func TestDecodedBodyOutlivesFrame(t *testing.T) {
	for _, pair := range [][2]*Envelope{{
		{Kind: KindTask, Task: &Task{TaskID: "j1/rank3", JobID: "j1", Cmd: "namd2.sh",
			Args: []string{"in.pdb", "out.log"}, Env: []string{"A=1"}, Dir: "/tmp",
			Rank: 3, Size: 4, Control: "127.0.0.1:7000", KVS: "kvs_j1_1", WallLimit: time.Hour}},
		{Kind: KindTask, Task: &Task{TaskID: "k2/rank4", JobID: "k2", Cmd: "gromacs!",
			Args: []string{"ab.cde", "fgh.ijk"}, Env: []string{"B=2"}, Dir: "/var",
			Rank: 4, Size: 5, Control: "10.9.8.7:65000", KVS: "kvs_k2_9", WallLimit: time.Minute}},
	}, {
		{Kind: KindResult, Result: &Result{TaskID: "j1/rank3", JobID: "j1", ExitCode: 2, Err: "boom", Elapsed: time.Second}},
		{Kind: KindResult, Result: &Result{TaskID: "k2/rank4", JobID: "k2", ExitCode: 3, Err: "bang", Elapsed: time.Minute}},
	}} {
		var buf bytes.Buffer
		c := NewCodec(&buf)
		for _, e := range pair {
			if err := c.Send(e); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		// The second frame reads into the buffer the first one used.
		next, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range []*Envelope{got, next} {
			e.Seq = pair[i].Seq
			if !reflect.DeepEqual(e, pair[i]) {
				t.Errorf("%s frame %d after the next read:\n got %+v\nwant %+v", e.Kind, i, e, pair[i])
			}
		}
	}
}
