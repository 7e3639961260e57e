package proto

// Native fuzz targets for the wire codec (run in CI as a 20s smoke pass,
// see .github/workflows/ci.yml). Two properties are load-bearing:
//
//  1. decode never panics: the dispatcher feeds every byte a peer sends
//     into decodeBinary, so any panic is a remote crash.
//  2. the codec loses nothing: for every kind, an envelope that goes
//     through the binary codec equals the one that went in. encoding/json
//     over the same struct tags is the independent oracle — a field the
//     hand-written codec forgets shows up as a divergence from it. JSON is
//     a test-side reference only; it is not a wire format.
//
// The seed corpus lives in testdata/fuzz/<Target>/ (the native corpus
// location); regenerate it with
//
//	JETS_REGEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzKinds is the fixed order FuzzRoundTrip maps its kind selector onto;
// corpus files encode indexes into it.
var fuzzKinds = []Kind{
	KindTask, KindResult, KindOutput, KindHeartbeat,
	KindRegister, KindRegistered, KindStage, KindStaged, KindError,
	KindPeerSubmit, KindJobDone, KindShutdown, KindPeerAttach,
	KindPeerAttached, KindLoadReport, KindStealRequest, KindStealReply,
}

// retiredFrames are frames of the kinds whose codes were retired: a peer
// still sending one must get a decode error. seed names its corpus file.
var retiredFrames = []struct {
	seed    string
	payload []byte
}{
	{"seed-00-work-request", []byte{binMagic, 1, 0x00}},
	{"seed-01-no-work", []byte{binMagic, 13, 0x00}},
	{"seed-retired-heartbeat", []byte{binMagic, 5, 0x00, 0x01, 'w', 0x01, 0x02}},
	{"seed-retired-registered", []byte{binMagic, 7, 0x00}},
}

// firstCode is the kind code a kind had when its round-trip seed was first
// written, for the kinds whose layout later moved to a new code.
var firstCode = map[Kind]int{KindHeartbeat: 5, KindRegistered: 7}

// canonEnvelope normalizes the representations the two encodings cannot
// distinguish: empty and nil slices (both encode as length 0 / omitted).
func canonEnvelope(e *Envelope) *Envelope {
	canonJob := func(p *PeerSubmit) {
		if len(p.Args) == 0 {
			p.Args = nil
		}
		if len(p.Env) == 0 {
			p.Env = nil
		}
	}
	if e.PeerSubmit != nil {
		p := *e.PeerSubmit
		canonJob(&p)
		e.PeerSubmit = &p
	}
	if e.StealReply != nil {
		jobs := append([]PeerSubmit(nil), e.StealReply.Jobs...)
		for i := range jobs {
			canonJob(&jobs[i])
		}
		e.StealReply = &StealReply{Jobs: jobs}
	}
	if e.PeerAttach != nil {
		a := *e.PeerAttach
		if len(a.Outstanding) == 0 {
			a.Outstanding = nil
		}
		e.PeerAttach = &a
	}
	if e.PeerInfo != nil {
		i := *e.PeerInfo
		if len(i.Live) == 0 {
			i.Live = nil
		}
		e.PeerInfo = &i
	}
	if e.Task != nil {
		t := *e.Task
		if len(t.Args) == 0 {
			t.Args = nil
		}
		if len(t.Env) == 0 {
			t.Env = nil
		}
		e.Task = &t
	}
	if e.Output != nil {
		o := *e.Output
		if len(o.Data) == 0 {
			o.Data = nil
		}
		e.Output = &o
	}
	if e.Register != nil {
		r := *e.Register
		if len(r.Coord) == 0 {
			r.Coord = nil
		}
		e.Register = &r
	}
	if e.Stage != nil {
		s := *e.Stage
		if len(s.Data) == 0 {
			s.Data = nil
		}
		e.Stage = &s
	}
	return e
}

// FuzzDecodeBinary asserts decode-never-panics on arbitrary payloads, and
// that anything that decodes successfully re-encodes to an equal envelope
// (the decoder accepts only envelopes the encoder can reproduce).
func FuzzDecodeBinary(f *testing.F) {
	for _, e := range allEnvelopes() {
		if payload, ok := appendBinary(nil, e); ok {
			f.Add(payload)
		}
	}
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, 0x7E, 0x01})
	f.Add([]byte{binMagic, binOutput, 0x01, 0x01, 'x', 0x01, 's', 0x20})
	f.Add([]byte(`{"kind":"task"}`))
	for _, r := range retiredFrames {
		f.Add(r.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeBinary(payload) // must not panic
		if err != nil {
			return
		}
		enc, ok := appendBinary(nil, e)
		if !ok {
			t.Fatalf("decoded envelope has no binary form: %+v", e)
		}
		e2, err := decodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if !reflect.DeepEqual(canonEnvelope(e), canonEnvelope(e2)) {
			t.Fatalf("decode(encode(decode(x))) diverged:\n%+v\n%+v", e, e2)
		}
	})
}

// FuzzRoundTrip builds an envelope of every kind from fuzzed fields and
// asserts the binary round trip and the JSON oracle's round trip decode to
// the same envelope, which is the one that went in.
func FuzzRoundTrip(f *testing.F) {
	f.Add(byte(0), "j1/rank3", "j1", "namd2.sh", []byte("hello\x00world"), int64(3), int64(90e9), uint64(7), true) // task
	f.Add(byte(2), "t", "stdout", "", []byte{}, int64(-1), int64(0), uint64(0), false)                             // output
	f.Add(byte(6), "namd2.sh", "bin/x", "", []byte{0xBF, 0x7B, 0xFF}, int64(4), int64(1), uint64(1), true)         // stage
	f.Add(byte(8), "boom", "", "", []byte(nil), int64(0), int64(0), uint64(2), false)                              // error
	f.Fuzz(func(t *testing.T, kindSel byte, s1, s2, s3 string, blob []byte, n1, n2 int64, seq uint64, flag bool) {
		// JSON replaces invalid UTF-8 with U+FFFD; that is a property of
		// encoding/json, not a codec divergence, so compare on valid UTF-8.
		s1 = strings.ToValidUTF8(s1, "�")
		s2 = strings.ToValidUTF8(s2, "�")
		s3 = strings.ToValidUTF8(s3, "�")

		e := &Envelope{Kind: fuzzKinds[int(kindSel)%len(fuzzKinds)], Seq: seq}
		switch e.Kind {
		case KindTask:
			e.Task = &Task{
				TaskID: s1, JobID: s2, Cmd: s3,
				Args: []string{s1, s3}, Env: []string{s2},
				Dir: s3, Rank: int(int32(n1)), Size: int(int32(n2)),
				Control: s2, KVS: s1, WallLimit: time.Duration(n2),
			}
		case KindResult:
			e.Result = &Result{TaskID: s1, JobID: s2, ExitCode: int(int32(n1)), Err: s3, Elapsed: time.Duration(n2)}
		case KindOutput:
			e.Output = &Output{TaskID: s1, Stream: s2, Data: blob}
		case KindRegistered:
			e.Registered = &Registered{HeartbeatEvery: time.Duration(n1)}
		case KindRegister:
			e.Register = &Register{WorkerID: s1, Host: s2, Cores: int(int32(n1)), Coord: []int{int(int32(n1)), int(int32(n2))}}
		case KindStage, KindStaged:
			e.Stage = &Stage{Name: s1, Path: s2, Data: blob}
		case KindError:
			e.Error = s1
		case KindPeerSubmit:
			e.PeerSubmit = fuzzJob(s1, s2, s3, n1, n2, flag)
		case KindJobDone:
			e.JobDone = &JobDone{JobID: s1, Failed: flag, Err: s2, Retries: int(int32(n1)), Rejected: !flag}
		case KindPeerAttach:
			e.PeerAttach = &PeerAttach{PeerID: s1, Outstanding: []string{s2, s3}, LoadEvery: time.Duration(n2)}
		case KindPeerAttached:
			e.PeerInfo = &PeerInfo{Live: []string{s1, s2, s3}}
		case KindLoadReport:
			e.LoadReport = &LoadReport{Queued: int(int32(n1)), Running: int(int32(n2)), Idle: int(int32(seq)), Workers: len(blob)}
		case KindStealRequest:
			e.StealRequest = &StealRequest{Max: int(int32(n1)), Dest: s1}
		case KindStealReply:
			e.StealReply = &StealReply{}
			for i := 0; i < len(blob)%4; i++ {
				e.StealReply.Jobs = append(e.StealReply.Jobs, *fuzzJob(s1, s2, s3, n1+int64(i), n2, flag))
			}
		}

		enc, ok := appendBinary(nil, e)
		if !ok {
			t.Fatalf("%s: no binary form", e.Kind)
		}
		fromBin, err := decodeBinary(enc)
		if err != nil {
			t.Fatalf("%s: binary decode: %v", e.Kind, err)
		}
		j, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("%s: json marshal: %v", e.Kind, err)
		}
		fromJSON := &Envelope{}
		if err := json.Unmarshal(j, fromJSON); err != nil {
			t.Fatalf("%s: json unmarshal: %v", e.Kind, err)
		}
		if !reflect.DeepEqual(canonEnvelope(fromBin), canonEnvelope(fromJSON)) {
			t.Fatalf("%s: binary and JSON round trips diverged:\nbinary: %+v\njson:   %+v",
				e.Kind, fromBin, fromJSON)
		}
		if !reflect.DeepEqual(canonEnvelope(fromBin), canonEnvelope(e)) {
			t.Fatalf("%s: binary round trip lost data:\nsent: %+v\ngot:  %+v", e.Kind, e, fromBin)
		}
	})
}

// fuzzJob builds the job body shared by peer-submit and steal-reply.
func fuzzJob(s1, s2, s3 string, n1, n2 int64, flag bool) *PeerSubmit {
	return &PeerSubmit{
		JobID: s1, JobType: int(int32(n1)) % 3, Priority: int(int32(n2)), NProcs: int(int32(n1)),
		Cmd: s2, Args: []string{s3, s1}, Env: []string{s2}, Dir: s3,
		WallLimit: time.Duration(n2), Stolen: flag, Retries: int(int32(n1 >> 8)),
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus from
// allEnvelopes when JETS_REGEN_CORPUS=1; by default it only verifies the
// corpus directories exist and are non-empty.
func TestRegenerateFuzzCorpus(t *testing.T) {
	decodeDir := filepath.Join("testdata", "fuzz", "FuzzDecodeBinary")
	roundDir := filepath.Join("testdata", "fuzz", "FuzzRoundTrip")
	if os.Getenv("JETS_REGEN_CORPUS") == "" {
		for _, dir := range []string{decodeDir, roundDir} {
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) == 0 {
				t.Fatalf("seed corpus missing under %s (regenerate with JETS_REGEN_CORPUS=1): %v", dir, err)
			}
		}
		return
	}
	for _, dir := range []string{decodeDir, roundDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Seed file names stay stable when kinds retire or change layout, so
	// each seed's subtest keeps its name. Decode seeds are numbered as if
	// the first two retired frames still led allEnvelopes, and those numbers
	// hold them; round-trip seeds are numbered by the kind's first code.
	writeDecodeSeed := func(name string, payload []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
		if err := os.WriteFile(filepath.Join(decodeDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range retiredFrames {
		writeDecodeSeed(r.seed, r.payload)
	}
	for i, e := range allEnvelopes() {
		if payload, ok := appendBinary(nil, e); ok {
			writeDecodeSeed(fmt.Sprintf("seed-%02d-%s", 2+i, e.Kind), payload)
		}
	}
	// A truncated task keeps the decoder's error paths in the corpus.
	writeDecodeSeed("seed-corrupt-task", []byte{binMagic, binTask, 0x01, 0xFF})
	for i, k := range fuzzKinds {
		code, moved := firstCode[k]
		if !moved {
			code = slices.Index(kindOfCode[:], k)
		}
		var b bytes.Buffer
		b.WriteString("go test fuzz v1\n")
		fmt.Fprintf(&b, "byte(%d)\n", i)
		fmt.Fprintf(&b, "string(%s)\n", strconv.Quote("j1/rank3"))
		fmt.Fprintf(&b, "string(%s)\n", strconv.Quote("stdout"))
		fmt.Fprintf(&b, "string(%s)\n", strconv.Quote("namd2.sh"))
		fmt.Fprintf(&b, "[]byte(%s)\n", strconv.Quote("payload\x00\xbf\x7b"))
		b.WriteString("int64(-3)\nint64(90000000000)\nuint64(7)\nbool(true)\n")
		if err := os.WriteFile(filepath.Join(roundDir, fmt.Sprintf("seed-%02d-%s", code-1, k)), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
