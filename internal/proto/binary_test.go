package proto

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// allEnvelopes covers every kind, the first entry of each fully populated
// and, where the payload has optional fields, a zero-ish one after it.
func allEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindShutdown},
		{Kind: KindTask, Task: &Task{
			TaskID: "j1/rank3", JobID: "j1", Cmd: "namd2.sh",
			Args: []string{"in.pdb", "out.log", ""}, Env: []string{"A=1", "B="},
			Dir: "/tmp/x", Rank: 3, Size: 8,
			Control: "127.0.0.1:5001", KVS: "kvs_j1_1",
			WallLimit: 90 * time.Second,
		}},
		{Kind: KindTask, Task: &Task{TaskID: "t", JobID: "j", Cmd: "c"}},
		{Kind: KindResult, Result: &Result{
			TaskID: "j1/rank3", JobID: "j1", ExitCode: -1,
			Err: "worker lost", Elapsed: 1234567 * time.Nanosecond,
		}},
		{Kind: KindResult, Result: &Result{TaskID: "t", JobID: "j"}},
		{Kind: KindOutput, Output: &Output{
			TaskID: "j1/rank3", Stream: "stdout", Data: []byte("hello\x00world"),
		}},
		{Kind: KindOutput, Output: &Output{TaskID: "t", Stream: "stderr"}},
		{Kind: KindHeartbeat},
		{Kind: KindRegister, Register: &Register{
			WorkerID: "ion-17-worker-4", Host: "ion-17", Cores: 4,
			Coord: []int{3, 0, -1},
		}},
		{Kind: KindRegister, Register: &Register{WorkerID: "w"}},
		{Kind: KindRegistered, Registered: &Registered{HeartbeatEvery: time.Second}},
		{Kind: KindStage, Stage: &Stage{
			Name: "namd2.sh", Path: "bin/namd2.sh", Data: []byte("\x7fELF\x00raw bytes"),
		}},
		{Kind: KindStage, Stage: &Stage{Name: "empty"}},
		{Kind: KindStaged, Stage: &Stage{Name: "namd2.sh"}},
		{Kind: KindError, Error: "duplicate worker id w4"},
		{Kind: KindError},
	}
}

// declaredKinds parses the package source for every constant of type Kind,
// so a kind added to proto.go shows up here without anyone
// remembering to list it.
func declaredKinds(t *testing.T) map[Kind]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]string{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Kind" {
				return true
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: Kind constant is not a string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds[Kind(v)] = name.Name
			}
			return true
		})
	}
	return kinds
}

// kindOfCode is the tests' copy of the kind-code table: it maps a kind code
// to its Kind, and "" marks an unassigned code.
var kindOfCode = [...]Kind{
	binTask:       KindTask,
	binResult:     KindResult,
	binOutput:     KindOutput,
	binRegister:   KindRegister,
	binStage:      KindStage,
	binStaged:     KindStaged,
	binError:      KindError,
	binShutdown:   KindShutdown,
	binHeartbeat:  KindHeartbeat,
	binRegistered: KindRegistered,
}

// retiredCodes are kind codes that once named a kind and are never reused:
// work-request (1), the old heartbeat (5) and registered (7) layouts, no-work
// (13), and the federation kinds peer-submit (11), job-done (12),
// peer-attach (15), peer-attached (16), load-report (17), steal-request (18)
// and steal-reply (19).
var retiredCodes = []byte{1, 5, 7, 11, 12, 13, 15, 16, 17, 18, 19}

// TestEveryKindHasACodec ranges over every Kind constant the package
// declares and round-trips a populated envelope of that kind through
// Send/Recv, checking that the frame carries the kind's code. A kind added
// without a kind code, an encoder case, a decoder case and an allEnvelopes
// entry fails here.
func TestEveryKindHasACodec(t *testing.T) {
	populated := map[Kind]*Envelope{}
	for _, e := range allEnvelopes() {
		if populated[e.Kind] == nil {
			populated[e.Kind] = e
		}
	}
	kinds := declaredKinds(t)
	if len(kinds) < 10 {
		t.Fatalf("found only %d Kind constants in the source; the scan is broken", len(kinds))
	}
	// Retired codes are never reassigned: a peer still sending one must get
	// an unknown-kind error, not some other kind or a misleading one.
	for _, code := range retiredCodes {
		if k := kindOfCode[code]; k != "" {
			t.Errorf("retired kind code %d reassigned to %q", code, k)
		}
		e, err := decodeBinary([]byte{binMagic, code, 0x01})
		if !errors.Is(err, ErrCorruptFrame) || !strings.Contains(err.Error(), "unknown kind code") {
			t.Errorf("retired kind code %d decoded to %+v, %v", code, e, err)
		}
	}
	codeOf := map[Kind]byte{}
	for code, k := range kindOfCode {
		if k == "" {
			continue
		}
		if _, dup := codeOf[k]; dup {
			t.Errorf("%s has two kind codes", k)
		}
		codeOf[k] = byte(code)
	}
	if len(codeOf) != len(kinds) {
		t.Errorf("%d kind codes for %d declared kinds", len(codeOf), len(kinds))
	}
	for kind, name := range kinds {
		want := populated[kind]
		if want == nil {
			t.Errorf("%s (%q): no populated envelope in allEnvelopes", name, kind)
			continue
		}
		code, ok := codeOf[kind]
		if !ok {
			t.Errorf("%s (%q): no kind code in kindOfCode", name, kind)
			continue
		}
		var buf bytes.Buffer
		c := NewCodec(&buf)
		e := *want
		if err := c.Send(&e); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		if got := buf.Bytes()[5]; got != code {
			t.Errorf("%s: frame carries kind code %d, want %d", name, got, code)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: recv: %v", name, err)
		}
		if got.Seq != 1 {
			t.Errorf("%s: seq %d want 1", name, got.Seq)
		}
		got.Seq = 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestBinaryRoundTripAllEnvelopes(t *testing.T) {
	for _, want := range allEnvelopes() {
		var buf bytes.Buffer
		c := NewCodec(&buf)
		if err := c.Send(want); err != nil {
			t.Fatalf("%s: send: %v", want.Kind, err)
		}
		raw := buf.Bytes()
		if len(raw) < 5 || raw[4] != binMagic {
			t.Fatalf("%s: frame not binary-encoded: % x", want.Kind, raw[:min(len(raw), 8)])
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: recv: %v", want.Kind, err)
		}
		got.Seq = 0
		want.Seq = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v want %+v", want.Kind, got, want)
		}
	}
}

// TestSendRejectsUnencodable: an envelope the codec cannot put on the wire
// is a Send error, not a silently different format.
func TestSendRejectsUnencodable(t *testing.T) {
	for _, e := range []*Envelope{
		{Kind: KindStage},            // nil payload
		{Kind: KindRegistered},       // nil payload
		{Kind: KindTask},             // nil payload
		{Kind: Kind("no-such")},      // unknown kind
		{Kind: KindTask, Error: "x"}, // wrong field populated
	} {
		var buf bytes.Buffer
		c := NewCodec(&buf)
		if err := c.Send(e); err == nil {
			t.Errorf("%s: Send accepted an unencodable envelope", e.Kind)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written for a rejected envelope", e.Kind, buf.Len())
		}
	}
}

// TestForeignFirstByteRejected: a payload that does not open with the magic
// byte is an explicit error, and a JSON v1 frame is told so by name.
func TestForeignFirstByteRejected(t *testing.T) {
	for name, payload := range map[string][]byte{
		"json v1": []byte(`{"kind":"register","register":{"worker_id":"w"}}`),
		"text":    []byte("GET / HTTP/1.1\r\n"),
		"empty":   {},
	} {
		var buf bytes.Buffer
		sendRaw(t, &buf, payload)
		_, err := NewCodec(&buf).Recv()
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: got %v want ErrCorruptFrame", name, err)
		}
		if name == "json v1" && !strings.Contains(err.Error(), "JSON v1 framing is no longer spoken") {
			t.Errorf("%s: error does not name the retired format: %v", name, err)
		}
	}
}

func TestStagePayloadHasNoBase64(t *testing.T) {
	// Stage payloads carry their bytes raw: the frame must contain the
	// payload verbatim, no base64 expansion, and only a few bytes of
	// framing overhead.
	data := []byte{0x00, 0x01, 0xFE, 0xFF, 0xBF, 0x7B, 0x22, 0x00}
	env := &Envelope{Kind: KindStage, Stage: &Stage{Name: "blob", Data: data}}

	var bbuf bytes.Buffer
	bc := NewCodec(&bbuf)
	if err := bc.Send(env); err != nil {
		t.Fatal(err)
	}
	raw := bbuf.Bytes()
	if raw[4] != binMagic {
		t.Fatalf("stage frame not binary: % x", raw[:8])
	}
	if !bytes.Contains(raw, data) {
		t.Fatal("binary stage frame does not contain the raw payload bytes")
	}
	if bytes.Contains(raw, []byte(base64.StdEncoding.EncodeToString(data))) {
		t.Fatal("binary stage frame still contains base64")
	}
	if overhead := len(raw) - len(data) - len("blob"); overhead > 12 {
		t.Fatalf("stage frame carries %d bytes of overhead", overhead)
	}
	got, err := bc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Stage.Data, data) {
		t.Fatalf("round trip: %x", got.Stage.Data)
	}
}

// sendRaw frames an arbitrary payload the way Send would.
func sendRaw(t *testing.T, buf *bytes.Buffer, payload []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
}

func TestBinaryCorruptFrames(t *testing.T) {
	// Build one valid task frame to mutate.
	var ref bytes.Buffer
	c := NewCodec(&ref)
	if err := c.Send(allEnvelopes()[3]); err != nil {
		t.Fatal(err)
	}
	valid := append([]byte(nil), ref.Bytes()[4:]...)

	cases := map[string][]byte{
		"unknown kind code":  {binMagic, 0x7E, 0x01},
		"magic only":         {binMagic},
		"truncated payload":  valid[:len(valid)/2],
		"trailing bytes":     append(append([]byte(nil), valid...), 0xAA, 0xBB),
		"length overrun":     {binMagic, binTask, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"string past buffer": {binMagic, binOutput, 0x01, 0x01, 'x', 0x01, 's', 0x20},
	}
	for name, payload := range cases {
		var buf bytes.Buffer
		sendRaw(t, &buf, payload)
		rc := NewCodec(&buf)
		if _, err := rc.Recv(); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: got %v want ErrCorruptFrame", name, err)
		}
	}
}

func TestBinarySendOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	e := &Envelope{Kind: KindOutput, Output: &Output{
		TaskID: "t", Stream: "stdout", Data: make([]byte, MaxFrame),
	}}
	if err := c.Send(e); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v want ErrFrameTooLarge", err)
	}
}

func TestRecvMaxFrameBoundary(t *testing.T) {
	// A header of exactly MaxFrame must not trip the size guard (the body
	// read fails on the empty stream instead, proving we got past it).
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	buf.Write(hdr[:])
	c := NewCodec(nopRW{&buf})
	if _, err := c.Recv(); err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("MaxFrame header: got %v", err)
	}
	// One past the limit is rejected before any body read.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	c = NewCodec(nopRW{&buf})
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("MaxFrame+1 header: got %v want ErrFrameTooLarge", err)
	}
}

// TestConcurrentBinarySenders exercises the send path from many goroutines
// with every kind; run under -race it guards the seq counter and the shared
// buffer pool.
func TestConcurrentBinarySenders(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 64
	envs := allEnvelopes()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			src := envs[i%len(envs)]
			e := *src // shallow copy: Send mutates Seq
			if err := a.Send(&e); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
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

// TestPooledBuffersDoNotAlias verifies that payload bytes survive buffer
// reuse: the decoded Output.Data of one frame must stay intact after later
// frames recycle the pool's buffers.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	first := []byte("first-payload")
	if err := c.Send(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "a", Stream: "stdout", Data: first}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Send(&Envelope{Kind: KindOutput, Output: &Output{TaskID: "b", Stream: "stdout", Data: bytes.Repeat([]byte{0xEE}, 64)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Output.Data, first) {
		t.Fatalf("payload corrupted by buffer reuse: %q", got.Output.Data)
	}
}
