package proto

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRecvFrameClassifiesWithoutDecode(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	for _, e := range allEnvelopes() {
		if err := c.Send(e); err != nil {
			t.Fatal(err)
		}
		f, err := c.RecvFrame()
		if err != nil {
			t.Fatalf("%s: %v", e.Kind, err)
		}
		if f.Kind() != e.Kind {
			t.Fatalf("%s: kind=%s", e.Kind, f.Kind())
		}
		env, err := f.Envelope()
		if err != nil || env.Kind != e.Kind {
			t.Fatalf("%s: envelope %+v, %v", e.Kind, env, err)
		}
		f.Release()
	}
}

// TestSendRawRelayByteIdentical verifies the zero-copy contract: the bytes a
// relay forwards with SendRaw are exactly the bytes the origin peer put on
// the wire.
func TestSendRawRelayByteIdentical(t *testing.T) {
	var origin bytes.Buffer
	oc := NewCodec(&origin)
	payload := []byte{0x00, 0xBF, 0x7B, 0xFF, 0xDB}
	if err := oc.Send(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "t7", Stream: "stdout", Data: payload}}); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), origin.Bytes()...)

	f, err := oc.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	var relayed bytes.Buffer
	rc := NewCodec(&relayed)
	if err := rc.SendRaw(f.Payload()); err != nil {
		t.Fatal(err)
	}
	f.Release()
	if !bytes.Equal(relayed.Bytes(), wire) {
		t.Fatalf("relayed frame differs from origin\n% x\n% x", relayed.Bytes(), wire)
	}
	got, err := rc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Output.Data, payload) {
		t.Fatalf("payload %x", got.Output.Data)
	}
}

func TestFrameRefcountAndPoison(t *testing.T) {
	PoisonFrames(true)
	defer PoisonFrames(false)

	var buf bytes.Buffer
	c := NewCodec(&buf)
	data := bytes.Repeat([]byte{0x11}, 256)
	if err := c.Send(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "t", Stream: "stdout", Data: data}}); err != nil {
		t.Fatal(err)
	}
	f, err := c.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	f.Retain()
	payload := f.Payload()
	f.Release() // refs 2 -> 1: buffer must survive
	if bytes.Contains(payload, bytes.Repeat([]byte{poisonByte}, 8)) {
		t.Fatal("payload poisoned while a reference was held")
	}
	env, err := f.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	f.Release() // final: poison + recycle
	if !bytes.Contains(payload, bytes.Repeat([]byte{poisonByte}, 8)) {
		t.Fatal("released buffer not poisoned (poison hook inert)")
	}
	// The decoded envelope copied its bytes out, so it survives the release.
	if !bytes.Equal(env.Output.Data, data) {
		t.Fatal("decoded envelope aliased the pooled buffer")
	}
}

func TestFrameOverReleasePanics(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Send(&Envelope{Kind: KindShutdown}); err != nil {
		t.Fatal(err)
	}
	f, err := c.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release()
}

func TestRecvFrameCorrupt(t *testing.T) {
	for name, payload := range map[string][]byte{
		"magic only":   {binMagic},
		"unknown kind": {binMagic, 0x7E, 0x01},
		"json v1":      []byte(`{"kind":"output"}`),
	} {
		var buf bytes.Buffer
		sendRaw(t, &buf, payload)
		c := NewCodec(&buf)
		if _, err := c.RecvFrame(); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: got %v want ErrCorruptFrame", name, err)
		}
	}
	// A frame with a valid kind prefix but corrupt body classifies
	// fine (relays may forward it) but fails on Envelope().
	var buf bytes.Buffer
	sendRaw(t, &buf, []byte{binMagic, binOutput, 0x01, 0x01, 'x', 0x01, 's', 0x20})
	c := NewCodec(&buf)
	f, err := c.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if _, err := f.Envelope(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt body: got %v", err)
	}
}

// TestFrameConcurrentEnvelopeAndRelease hammers the decode-once cache and
// refcount from many goroutines; run under -race it guards the Frame's
// internal synchronization.
func TestFrameConcurrentEnvelopeAndRelease(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	for i := 0; i < 64; i++ {
		if err := c.Send(&Envelope{Kind: KindOutput, Output: &Output{
			TaskID: fmt.Sprintf("t%d", i), Stream: "stdout", Data: bytes.Repeat([]byte{byte(i)}, 128),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		f, err := c.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		const holders = 8
		for h := 0; h < holders; h++ {
			f.Retain()
		}
		var wg sync.WaitGroup
		for h := 0; h < holders; h++ {
			wg.Add(1)
			go func(want byte) {
				defer wg.Done()
				env, err := f.Envelope()
				if err != nil {
					t.Errorf("decode: %v", err)
				} else if env.Output.Data[0] != want {
					t.Errorf("payload %x want %x", env.Output.Data[0], want)
				}
				f.Release()
			}(byte(i))
		}
		f.Release()
		wg.Wait()
	}
}
