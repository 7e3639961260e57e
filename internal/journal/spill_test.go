package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func spillRecord(id string) Record {
	return Record{Kind: Submitted, JobID: id, NProcs: 1, Cmd: "noop", Args: []string{"-x", id}}
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == suffix {
			n++
		}
	}
	return n
}

func TestSpillPutGetRoundTrip(t *testing.T) {
	s, err := OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := Record{
		Kind: Submitted, JobID: "j1", JobType: 1, Priority: 3, NProcs: 4,
		Cmd: "namd2.sh", Args: []string{"in.pdb", "out.log"},
		Env: []string{"A=1"}, Dir: "/tmp",
	}
	if _, err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("j1")
	if err != nil || !ok {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	if got.Cmd != want.Cmd || got.NProcs != want.NProcs || len(got.Args) != 2 || got.Args[1] != "out.log" {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("Get found a record never put")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestSpillGetBatchAndRemove(t *testing.T) {
	s, err := OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("j%03d", i)
		ids = append(ids, id)
		if _, err := s.Put(spillRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("GetBatch returned %d records, want 100", len(got))
	}
	for _, id := range ids {
		if got[id].Args[1] != id {
			t.Fatalf("record %s round-tripped wrong: %+v", id, got[id])
		}
	}
	before := s.Bytes()
	for _, id := range ids[:50] {
		s.Remove(id)
	}
	if s.Len() != 50 {
		t.Fatalf("Len after removals = %d, want 50", s.Len())
	}
	if s.Bytes() >= before {
		t.Fatalf("Bytes did not shrink after removals: %d -> %d", before, s.Bytes())
	}
	got, err = s.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("GetBatch after removals = %d records, want 50", len(got))
	}
}

// TestSpillSegmentsReclaimed: segments are reference-counted by live records;
// removing every job spilled into a retired segment must delete its file, so
// the store's disk footprint tracks the cold backlog.
func TestSpillSegmentsReclaimed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpill(dir, 256) // tiny segments: a few records each
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%03d", i)
		ids = append(ids, id)
		if _, err := s.Put(spillRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	grown := countFiles(t, dir, ".seg")
	if grown < 10 {
		t.Fatalf("expected many tiny segments, got %d", grown)
	}
	for _, id := range ids {
		s.Remove(id)
	}
	if n := countFiles(t, dir, ".seg"); n > 2 {
		t.Fatalf("segments after removing everything = %d, want <= 2 (active + maybe one empty)", n)
	}
	if s.Bytes() != 0 {
		t.Fatalf("Bytes after removing everything = %d, want 0", s.Bytes())
	}
}

// TestSpillReopenRecovers: a Sync'd store reopened from the same directory
// serves every live record; RetainOnly sweeps the rest.
func TestSpillReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpill(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Put(spillRecord(fmt.Sprintf("j%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove("j10")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpill(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The rescan sees every record still in a segment file — including the
	// Removed one, whose removal was index-only. RetainOnly is the sweep that
	// makes the index match the journal's live set after recovery.
	if _, ok, _ := s2.Get("j20"); !ok {
		t.Fatal("reopened store lost a live record")
	}
	keep := map[string]struct{}{"j20": {}, "j30": {}}
	s2.RetainOnly(keep)
	if s2.Len() != 2 {
		t.Fatalf("Len after RetainOnly = %d, want 2", s2.Len())
	}
	if _, ok, _ := s2.Get("j10"); ok {
		t.Fatal("RetainOnly kept a swept record")
	}
	if rec, ok, err := s2.Get("j30"); err != nil || !ok || rec.Args[1] != "j30" {
		t.Fatalf("kept record unreadable: ok=%v err=%v rec=%+v", ok, err, rec)
	}
}

// TestSpillReopenTornTail: a torn frame at the tail of a segment (the crash
// the store exists to survive) ends that segment's rescan without failing
// the open; records before the tear survive.
func TestSpillReopenTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(spillRecord("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, spillSegmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xde, 0xad}); err != nil { // torn header+body
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatalf("open over a torn tail failed: %v", err)
	}
	defer s2.Close()
	if _, ok, err := s2.Get("ok"); err != nil || !ok {
		t.Fatalf("record before the tear lost: ok=%v err=%v", ok, err)
	}
}

// TestSpillPutReplacesEntry: re-putting an ID (a retried job spilling again)
// replaces the index entry instead of growing the live set.
func TestSpillPutReplacesEntry(t *testing.T) {
	s, err := OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(spillRecord("dup")); err != nil {
		t.Fatal(err)
	}
	upd := spillRecord("dup")
	upd.Cmd = "updated"
	if _, err := s.Put(upd); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after re-put = %d, want 1", s.Len())
	}
	rec, ok, err := s.Get("dup")
	if err != nil || !ok || rec.Cmd != "updated" {
		t.Fatalf("Get after re-put = %+v ok=%v err=%v, want the updated record", rec, ok, err)
	}
}

// TestSpillReadBatchRuns: records spilled end to end come back through
// ReadBatch with their indexes in ids, whatever order ids names them in; and
// when the segment is cut short under a live store, the records before the
// cut are still delivered — a failed run read falls back to one read per
// record — and the error names what was lost.
func TestSpillReadBatchRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("r%d", i)
		if _, err := s.Put(spillRecord(id)); err != nil {
			t.Fatal(err)
		}
		ids = append([]string{id}, ids...) // newest first: ReadBatch sorts by offset
	}
	ids = append(ids, "absent")
	read := func() (map[int]Record, error) {
		got := map[int]Record{}
		err := s.ReadBatch(ids, func(i int, r Record) {
			if _, dup := got[i]; dup {
				t.Errorf("index %d delivered twice", i)
			}
			got[i] = r
		})
		return got, err
	}
	got, err := read()
	if err != nil || len(got) != 8 {
		t.Fatalf("read %d records, err %v; want 8, nil", len(got), err)
	}
	for i, r := range got {
		if r.JobID != ids[i] || r.Args[1] != ids[i] {
			t.Fatalf("index %d (%s) delivered %+v", i, ids[i], r)
		}
	}

	// Cut the segment inside the last record: r0..r6 stay readable.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, spillSegmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, err = read()
	if err == nil {
		t.Fatal("reading a truncated record reported no error")
	}
	if len(got) != 7 {
		t.Fatalf("%d records read past the cut, want the 7 before it", len(got))
	}
	if _, lost := got[0]; lost {
		t.Fatalf("the cut record %s was delivered", ids[0])
	}
}
