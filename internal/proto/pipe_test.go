package proto

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// rawPipe is Pipe without the codecs.
func rawPipe() (*pipeEnd, *pipeEnd) {
	ab, ba := newPipeBuf(), newPipeBuf()
	return &pipeEnd{r: ba, w: ab}, &pipeEnd{r: ab, w: ba}
}

// within fails the test unless f returns within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestPipeWriteDoesNotWaitForReader(t *testing.T) {
	a, b := rawPipe()
	defer a.Close()
	within(t, 5*time.Second, "a write that fits the buffer", func() {
		if n, err := a.Write(make([]byte, PipeBuffer)); n != PipeBuffer || err != nil {
			t.Errorf("write = %d, %v", n, err)
		}
	})
	got, err := io.ReadAll(io.LimitReader(b, PipeBuffer))
	if err != nil || len(got) != PipeBuffer {
		t.Fatalf("read %d bytes, %v", len(got), err)
	}
}

func TestPipeWriteBlocksWhenFull(t *testing.T) {
	a, b := rawPipe()
	defer a.Close()
	msg := bytes.Repeat([]byte("0123456789abcdef"), 3*PipeBuffer/16+1)
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(msg)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("a write of %d bytes into a %d-byte buffer returned (%v) before anyone read", len(msg), PipeBuffer, err)
	case <-time.After(50 * time.Millisecond):
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("bytes reordered or corrupted across the buffer's wrap")
	}
}

func TestPipeCloseDrainsThenEOF(t *testing.T) {
	a, b := rawPipe()
	if _, err := a.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // idempotent
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last words" {
		t.Fatalf("reader after the writer's close: %q, %v", got, err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write to a closed peer: %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write after own close: %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("read after own close: %v, want io.ErrClosedPipe", err)
	}
}

// TestPipeCloseUnblocksWaiters: a close from either end wakes a writer
// blocked on a full buffer and a reader blocked on an empty one.
func TestPipeCloseUnblocksWaiters(t *testing.T) {
	for _, closer := range []string{"writer", "reader"} {
		t.Run(closer, func(t *testing.T) {
			a, b := rawPipe()
			defer b.Close()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if _, err := a.Write(make([]byte, 2*PipeBuffer)); !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("blocked write: %v, want io.ErrClosedPipe", err)
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := a.Read(make([]byte, 1)); err == nil {
					t.Error("blocked read returned no error")
				}
			}()
			time.Sleep(20 * time.Millisecond) // let both park
			if closer == "writer" {
				a.Close()
			} else {
				b.Close()
			}
			within(t, 5*time.Second, "the blocked write and read", wg.Wait)
		})
	}
}

// TestPipeCodecDuplexStress runs frames both ways at once, many writers per
// side, with frames larger than the buffer mixed in so both directions fill.
func TestPipeCodecDuplexStress(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const senders, frames = 4, 200
	big := bytes.Repeat([]byte{0x5A}, PipeBuffer+1000)
	var wg sync.WaitGroup
	for _, c := range []*Codec{a, b} {
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(c *Codec, s int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					data := []byte("small")
					if i%50 == s {
						data = big
					}
					if err := c.Send(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "t", Data: data}}); err != nil {
						t.Error(err)
						return
					}
				}
			}(c, s)
		}
	}
	for _, c := range []*Codec{a, b} {
		wg.Add(1)
		go func(c *Codec) {
			defer wg.Done()
			for i := 0; i < senders*frames; i++ {
				e, err := c.Recv()
				if err != nil {
					t.Error(err)
					return
				}
				if d := e.Output.Data; !bytes.Equal(d, []byte("small")) && !bytes.Equal(d, big) {
					t.Errorf("frame %d: corrupted payload of %d bytes", i, len(d))
					return
				}
			}
		}(c)
	}
	within(t, 30*time.Second, "the duplex exchange", wg.Wait)
}
