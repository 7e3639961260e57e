package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	want := &Envelope{
		Kind: KindTask,
		Task: &Task{
			TaskID:  "t1",
			JobID:   "j1",
			Cmd:     "namd2.sh",
			Args:    []string{"input-1.pdb", "output-1.log"},
			Env:     []string{"PMI_RANK=0"},
			Rank:    0,
			Size:    4,
			Control: "127.0.0.1:5000",
			KVS:     "kvs_0",
		},
	}
	var got *Envelope
	var recvErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, recvErr = b.Recv()
	}()
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	<-done
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if got.Kind != want.Kind || !reflect.DeepEqual(got.Task, want.Task) {
		t.Fatalf("got %+v want %+v", got.Task, want.Task)
	}
}

func TestSequenceNumbers(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for i := 0; i < 3; i++ {
			a.Send(&Envelope{Kind: KindHeartbeat})
		}
	}()
	for i := uint64(1); i <= 3; i++ {
		e, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != i {
			t.Fatalf("seq=%d want %d", e.Seq, i)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Send(&Envelope{Kind: KindShutdown})
		}()
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		e, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	wg.Wait()
}

func TestOversizedFrameRejectedOnRecv(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	c := NewCodec(nopRW{&buf})
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v want ErrFrameTooLarge", err)
	}
}

type nopRW struct{ *bytes.Buffer }

func (nopRW) Write(p []byte) (int, error) { return len(p), nil }

func TestRecvEOF(t *testing.T) {
	c := NewCodec(nopRW{bytes.NewBuffer(nil)})
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("got %v want EOF", err)
	}
}

func TestRecvTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	c := NewCodec(nopRW{&buf})
	if _, err := c.Recv(); err == nil {
		t.Fatal("want error on truncated frame")
	}
}

func TestRecvCorruptJSON(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	c := NewCodec(nopRW{&buf})
	if _, err := c.Recv(); err == nil {
		t.Fatal("want error on corrupt JSON")
	}
}

func TestDialRealTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Envelope, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewCodec(conn)
		defer c.Close()
		e, err := c.Recv()
		if err != nil {
			return
		}
		done <- e
	}()
	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Envelope{Kind: KindRegister, Register: &Register{WorkerID: "w0", Host: "n0", Cores: 4}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-done:
		if e.Register == nil || e.Register.WorkerID != "w0" {
			t.Fatalf("bad register: %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("want error dialing closed port")
	}
}

// Property: any Task payload survives a frame round trip.
func TestTaskRoundTripProperty(t *testing.T) {
	f := func(id, job, cmd string, args []string, rank, size uint8) bool {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		want := &Task{TaskID: id, JobID: job, Cmd: cmd, Args: args,
			Rank: int(rank), Size: int(size)}
		errc := make(chan error, 1)
		go func() { errc <- a.Send(&Envelope{Kind: KindTask, Task: want}) }()
		got, err := b.Recv()
		if err != nil || <-errc != nil {
			return false
		}
		if got.Task.TaskID != want.TaskID || got.Task.Cmd != want.Cmd ||
			got.Task.Rank != want.Rank || got.Task.Size != want.Size {
			return false
		}
		if len(got.Task.Args) != len(want.Args) {
			// An empty slice decodes as nil; tolerate that but nothing else.
			return len(want.Args) == 0 && len(got.Task.Args) == 0
		}
		for i := range want.Args {
			if got.Task.Args[i] != want.Args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
