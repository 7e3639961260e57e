package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func collect(t *testing.T, j Journal) []Record {
	t.Helper()
	var out []Record
	if err := j.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: Submitted, JobID: "job1", JobType: 1, NProcs: 8,
			Cmd: "namd2.sh", Args: []string{"input-1.pdb", "output-1.log"},
			Env: []string{"A=1", "B=2"}, Dir: "/tmp/wd", WallLimit: 90 * time.Second},
		{Kind: Submitted, JobID: "job2", NProcs: 1, Cmd: "noop"},
		{Kind: Dispatched, JobID: "job1"},
		{Kind: Retried, JobID: "job1", Attempt: 2},
		{Kind: Completed, JobID: "job1", Failed: true},
		{Kind: Completed, JobID: "job2"},
	}
	for _, want := range recs {
		got, err := decodeRecord(encodeRecord(nil, want))
		if err != nil {
			t.Fatalf("decode %v: %v", want.Kind, err)
		}
		// Encoding only carries the fields the kind uses; normalize the
		// expectation the same way.
		norm := Record{Kind: want.Kind, JobID: want.JobID}
		switch want.Kind {
		case Submitted:
			norm = want
		case Completed:
			norm.Failed = want.Failed
		case Retried:
			norm.Attempt = want.Attempt
		}
		if len(got.Args) == 0 {
			got.Args = nil
		}
		if len(got.Env) == 0 {
			got.Env = nil
		}
		if !reflect.DeepEqual(got, norm) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", want.Kind, got, norm)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeRecord([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := decodeRecord([]byte{byte(Submitted), 200, 0, 0, 0}); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: Submitted, JobID: "a", NProcs: 1, Cmd: "x"},
		{Kind: Dispatched, JobID: "a"},
		{Kind: Completed, JobID: "a"},
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].JobID != want[i].JobID {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALSyncMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	// A huge flush interval proves durability comes from Sync, not the
	// ticker.
	w, err := OpenWAL(Options{Dir: dir, FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Kind: Submitted, JobID: "s", NProcs: 1, Cmd: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// A second WAL over the same directory sees the synced record without
	// the first ever closing — the kill -9 case.
	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 1 || got[0].JobID != "s" {
		t.Fatalf("replay after Sync = %+v, want the one synced record", got)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Append(Record{Kind: Submitted, JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: "c"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a torn frame: a header promising more bytes than exist.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1000)
	f.Write(hdr[:])
	f.Write([]byte("partial"))
	f.Close()

	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 3 {
		t.Fatalf("replayed %d records through a torn tail, want 3", len(got))
	}
}

func TestWALCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Append(Record{Kind: Submitted, JobID: fmt.Sprintf("j%d", i), NProcs: 1, Cmd: "c"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file: the CRC of that frame fails
	// and replay must stop there rather than hand back corrupt state.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) >= 3 {
		t.Fatalf("replayed %d records across a corrupt frame", len(got))
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, SegmentBytes: 256, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Append(Record{Kind: Submitted, JobID: fmt.Sprintf("job-%04d", i), NProcs: 1, Cmd: "cmd"}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			w.Sync() // force flushes so rotation actually triggers
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}
	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("job-%04d", i); r.JobID != want {
			t.Fatalf("record %d = %q, want %q (order lost across rotation)", i, r.JobID, want)
		}
	}
}

func TestWALCompactDropsHistoryKeepsNewAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Kind: Submitted, JobID: "old", NProcs: 1, Cmd: "c"})
	w.Append(Record{Kind: Completed, JobID: "old"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w2); len(got) != 2 {
		t.Fatalf("replay before compact = %d records, want 2", len(got))
	}
	// Re-journal the live state (nothing live here beyond one fresh job),
	// then drop the history.
	w2.Append(Record{Kind: Submitted, JobID: "live", NProcs: 1, Cmd: "c"})
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	got := collect(t, w3)
	if len(got) != 1 || got[0].JobID != "live" {
		t.Fatalf("replay after compact = %+v, want only the re-journaled record", got)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Append(Record{Kind: Dispatched, JobID: "x"}); err == nil {
		t.Error("append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
}

func TestNopJournal(t *testing.T) {
	var j Journal = Nop{}
	if err := j.Append(Record{Kind: Submitted, JobID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, j); len(got) != 0 {
		t.Fatalf("Nop replayed %d records", len(got))
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// priorityFixture holds the records in testdata/wal-prio and
// testdata/spill-prio. The files were written by the encoder that still
// stored a job priority: the Submitted records carry 7 and -3 in their
// priority slot. They pin that files from before the slot emptied still
// replay, field for field, and that today's encoder writes the same bytes
// with the slot zeroed, so an older reader reads new files too.
var priorityFixture = struct{ wal, spill []Record }{
	wal: []Record{
		{Kind: Submitted, JobID: "mpi-p7", JobType: 1, NProcs: 2, Cmd: "namd2",
			Args: []string{"-steps", "10"}, Env: []string{"A=1"}, Dir: "/work", WallLimit: 5 * time.Second},
		{Kind: Submitted, JobID: "seq-n3", NProcs: 1, Cmd: "echo", Args: []string{"hi"}},
		{Kind: SpillRef, JobID: "cold-p7"},
		{Kind: SpillRef, JobID: "cold-n3"},
	},
	spill: []Record{
		{Kind: Submitted, JobID: "cold-p7", NProcs: 1, Cmd: "cat",
			Args: []string{"-n", "in.txt"}, Env: []string{"K=v"}, Dir: "/data", WallLimit: 2 * time.Second},
		{Kind: Submitted, JobID: "cold-n3", JobType: 1, NProcs: 3, Cmd: "mdrun",
			Args: []string{"-deffnm", "md"}, Env: []string{"OMP_NUM_THREADS=1", "X="}},
	},
}

// copyFixture copies a fixture directory into a fresh temporary one, since
// opening a WAL or spill store writes to its directory.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func normalizeEmpty(r Record) Record {
	if len(r.Args) == 0 {
		r.Args = nil
	}
	if len(r.Env) == 0 {
		r.Env = nil
	}
	return r
}

func TestPrioritySlotFilesReplay(t *testing.T) {
	w, err := OpenWAL(Options{Dir: copyFixture(t, filepath.Join("testdata", "wal-prio"))})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := collect(t, w)
	if len(got) != len(priorityFixture.wal) {
		t.Fatalf("replayed %d records, want %d", len(got), len(priorityFixture.wal))
	}
	for i, want := range priorityFixture.wal {
		if g := normalizeEmpty(got[i]); !reflect.DeepEqual(g, want) {
			t.Errorf("WAL record %d:\n got %+v\nwant %+v", i, g, want)
		}
	}

	s, err := OpenSpill(copyFixture(t, filepath.Join("testdata", "spill-prio")), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := s.GetBatch([]string{"cold-p7", "cold-n3"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range priorityFixture.spill {
		if g := normalizeEmpty(recs[want.JobID]); !reflect.DeepEqual(g, want) {
			t.Errorf("spill record %s:\n got %+v\nwant %+v", want.JobID, g, want)
		}
	}

	// Byte for byte, a Submitted record encodes as the older encoder wrote
	// it, but for the priority slot, now zero.
	for _, f := range []struct{ path, magic string }{
		{filepath.Join("testdata", "wal-prio", segmentName(1)), walMagic},
		{filepath.Join("testdata", "spill-prio", spillSegmentName(1)), spillMagic},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		scanSegment(f.path, f.magic, func(r Record, off int64, frame int) error {
			if r.Kind != Submitted {
				return nil
			}
			n++
			old := data[off+frameHeaderLen : off+int64(frame)]
			slot := 1 + 4 + len(r.JobID) + 1 // kind, ID, job type
			if binary.LittleEndian.Uint32(old[slot:]) == 0 {
				t.Errorf("%s: fixture %s has no priority in its slot", f.path, r.JobID)
			}
			want := append([]byte(nil), old...)
			clear(want[slot : slot+4])
			if got := encodeRecord(nil, r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s encodes as\n%x\nwant\n%x", f.path, r.JobID, got, want)
			}
			return nil
		})
		if n != 2 {
			t.Errorf("%s: scanned %d Submitted records, want 2", f.path, n)
		}
	}
}
