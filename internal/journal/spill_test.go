package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

func spillRecord(id string) Record {
	return Record{Kind: Submitted, JobID: id, NProcs: 1, Cmd: "noop", Args: []string{"-x", id}}
}

// wideSpillRecord is a spec carrying arguments and environment, as a real
// task's does: its frame is about 1 KiB.
func wideSpillRecord(id string) Record {
	r := spillRecord(id)
	r.Args = append(r.Args, "-in", strings.Repeat("/scratch/inputs/", 16)+id, "-out", strings.Repeat("/scratch/outputs/", 16)+id)
	r.Env = []string{"PATH=" + strings.Repeat("/opt/tools/bin:", 20), "HOME=/home/user", "RUN=" + id}
	return r
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
		Kind: Submitted, JobID: "j1", JobType: 1, NProcs: 4,
		Cmd: "namd2.sh", Args: []string{"in.pdb", "out.log"},
		Env: []string{"A=1"}, Dir: "/tmp",
	}
	loc, err := s.Put(want)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Len() <= frameHeaderLen {
		t.Fatalf("Put returned a %d-byte record", loc.Len())
	}
	var got Record
	n := 0
	if err := s.ReadBatch([]Loc{{}, loc}, func(i int, r Record) { got, n = r, n+1 }); err != nil || n != 1 {
		t.Fatalf("ReadBatch read %d records, err %v; want 1, nil", n, err)
	}
	if got.Cmd != want.Cmd || got.NProcs != want.NProcs || len(got.Args) != 2 || got.Args[1] != "out.log" {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	if recs, _ := s.GetBatch([]string{"j1", "absent"}); len(recs) != 1 || recs["j1"].Cmd != want.Cmd {
		t.Fatalf("GetBatch = %+v, want j1 alone", recs)
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
// serves every record still in a segment; its owner claims the by-ID view and
// releases what it does not keep, after which the store keeps no view.
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
	// Removed one, whose removal was in memory only. The owner's sweep after
	// the claim makes the store match the journal's live set.
	if recs, _ := s2.GetBatch([]string{"j20"}); len(recs) != 1 {
		t.Fatal("reopened store lost a live record")
	}
	claimed := s2.Claim()
	if len(claimed) != 50 || s2.Len() != 50 {
		t.Fatalf("claimed %d records, Len %d; want 50 (the rescan keeps the removed one)", len(claimed), s2.Len())
	}
	for id, loc := range claimed {
		if id != "j20" && id != "j30" {
			s2.Release(loc)
		}
	}
	if s2.Len() != 2 {
		t.Fatalf("Len after the sweep = %d, want 2", s2.Len())
	}
	if recs, _ := s2.GetBatch([]string{"j30"}); len(recs) != 0 {
		t.Fatal("the by-ID view outlived the claim")
	}
	var rec Record
	if err := s2.ReadBatch([]Loc{claimed["j30"]}, func(_ int, r Record) { rec = r }); err != nil || rec.Args[1] != "j30" {
		t.Fatalf("kept record unreadable: err=%v rec=%+v", err, rec)
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
	if recs, err := s2.GetBatch([]string{"ok"}); err != nil || len(recs) != 1 {
		t.Fatalf("record before the tear lost: %d records, err=%v", len(recs), err)
	}
}

// TestSpillPutReplacesEntry: before the by-ID view is claimed, re-putting an
// ID (a retried job spilling again) replaces its entry instead of growing the
// live set.
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
	recs, err := s.GetBatch([]string{"dup"})
	if err != nil || recs["dup"].Cmd != "updated" {
		t.Fatalf("GetBatch after re-put = %+v err=%v, want the updated record", recs, err)
	}
}

// TestSpillReadBatchRuns: records spilled end to end come back through
// ReadBatch with their indexes in locs, whatever order locs names them in;
// and when the segment is cut short under a live store, the records before
// the cut are still delivered and the error names what was lost.
func TestSpillReadBatchRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Claim()
	var ids []string
	var locs []Loc
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("r%d", i)
		loc, err := s.Put(spillRecord(id))
		if err != nil {
			t.Fatal(err)
		}
		ids = append([]string{id}, ids...) // newest first: ReadBatch sorts by offset
		locs = append([]Loc{loc}, locs...)
	}
	ids = append(ids, "absent")
	locs = append(locs, Loc{})
	read := func() (map[int]Record, error) {
		got := map[int]Record{}
		err := s.ReadBatch(locs, func(i int, r Record) {
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

// failingWriter passes the first budget bytes to w, then fails: a write that
// crosses the budget lands its head and returns err (nil makes it a bare
// short write), and every later write lands nothing.
type failingWriter struct {
	w      io.Writer
	budget int
	err    error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.budget])
	f.budget = 0
	if f.err == nil && n == 0 {
		return 0, syscall.EFBIG
	}
	return n, f.err
}

// TestSpillFailedWriteKeepsAcceptedRecords: once the segment write fails —
// EFBIG past a file-size limit, or a short write — every later Put fails, so
// its job stays in memory, and every Put that succeeded still reads back,
// from the store's own buffer where the disk never got it. Reads do not stop
// at the write error.
func TestSpillFailedWriteKeepsAcceptedRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{{"EFBIG", syscall.EFBIG}, {"short write", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.out = &failingWriter{w: s.f, budget: 100 << 10, err: tc.err}
			var accepted []string
			failed := 0
			for i := 0; i < 5000; i++ {
				id := fmt.Sprintf("j%04d", i)
				if _, err := s.Put(spillRecord(id)); err != nil {
					failed++
					continue
				}
				if failed > 0 {
					t.Fatalf("Put %s succeeded after an earlier Put failed", id)
				}
				accepted = append(accepted, id)
			}
			if failed == 0 || len(accepted) < 1000 {
				t.Fatalf("%d Puts accepted, %d failed: the writer never failed mid-run", len(accepted), failed)
			}
			got, err := s.GetBatch(accepted)
			if len(got) != len(accepted) {
				t.Fatalf("%d of %d accepted records read back (err %v)", len(got), len(accepted), err)
			}
			for _, id := range accepted {
				if got[id].Args[1] != id {
					t.Fatalf("record %s read back as %+v", id, got[id])
				}
			}
			if err := s.Sync(); err == nil {
				t.Fatal("Sync reported success after a failed write")
			}
		})
	}
}

// TestSpillReadBatchReads: several shards' records interleave in one
// segment and one shard's batch is read back. With two shards and bare
// specs the batch costs one read, not one per run of adjacent records. With
// sixteen shards and ~1 KiB specs the other shards' records between two of
// the batch's are wider than maxReadGap, so they are skipped, not read: the
// bytes read stay within twice the bytes requested. The counts are the
// process's read syscalls and bytes from /proc/self/io.
func TestSpillReadBatchReads(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shards    int
		rec       func(string) Record
		maxReads  int64 // read syscalls, the counter's own included
		maxFactor int64 // bytes read per byte requested
	}{
		{"2 shards bare", 2, spillRecord, 4, 3},
		{"16 shards 1KiB", 16, wideSpillRecord, 1 << 30, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenSpill(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Claim()
			var batch []Loc
			need := int64(0)
			for i := 0; i < 1024*tc.shards; i++ {
				loc, err := s.Put(tc.rec(fmt.Sprintf("j%05d", i)))
				if err != nil {
					t.Fatal(err)
				}
				if i%tc.shards == 0 {
					batch = append(batch, loc)
					need += int64(loc.Len())
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			reads0, bytes0 := readCounts(t)
			n := 0
			if err := s.ReadBatch(batch, func(int, Record) { n++ }); err != nil || n != len(batch) {
				t.Fatalf("read %d of %d records, err %v", n, len(batch), err)
			}
			reads1, bytes1 := readCounts(t)
			reads, bytes := reads1-reads0, bytes1-bytes0
			t.Logf("%d records of %d B: %d read syscalls, %d bytes read for %d requested", n, need/int64(n), reads, bytes, need)
			if reads > tc.maxReads {
				t.Errorf("%d read syscalls, want at most %d (the counter's own included)", reads, tc.maxReads)
			}
			if bytes > tc.maxFactor*need {
				t.Errorf("read %d bytes for %d requested, want at most %dx", bytes, need, tc.maxFactor)
			}
		})
	}
}

// badBlockReader reads a segment through its file but fails with EIO, as a
// bad block would, any read that takes in the byte at offset bad.
type badBlockReader struct {
	*os.File
	bad int64
}

func (r badBlockReader) ReadAt(p []byte, off int64) (int, error) {
	if off <= r.bad && r.bad < off+int64(len(p)) {
		n, _ := r.File.ReadAt(p[:r.bad-off], off)
		return n, syscall.EIO
	}
	return r.File.ReadAt(p, off)
}

// TestSpillReadBatchBadBlock: a read that fails partway through a batch's
// span fails only the record whose bytes cannot be read. A bad block in
// another shard's record, which the batch does not ask for, fails nothing.
func TestSpillReadBatchBadBlock(t *testing.T) {
	s, err := OpenSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Claim()
	var all, batch []Loc
	for i := 0; i < 64; i++ {
		loc, err := s.Put(spillRecord(fmt.Sprintf("j%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, loc)
		if i%2 == 0 {
			batch = append(batch, loc)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bad  Loc // the record holding the bad block
		lost int // its index in batch; -1 when the batch does not ask for it
	}{
		{"requested record", all[20], 10},
		{"another shard's record", all[21], -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s.open = func(name string) (segmentReader, error) {
				f, err := os.Open(name)
				if err != nil {
					return nil, err
				}
				return badBlockReader{f, tc.bad.off + 5}, nil
			}
			defer func() { s.open = openSegmentReader }()
			got := map[int]Record{}
			err := s.ReadBatch(batch, func(i int, r Record) { got[i] = r })
			for i := range batch {
				id := fmt.Sprintf("j%02d", 2*i)
				r, ok := got[i]
				switch {
				case i == tc.lost && ok:
					t.Errorf("record %s was delivered from a bad block", id)
				case i != tc.lost && (!ok || r.Args[1] != id):
					t.Errorf("record %s: delivered %v as %+v; only the bad block's record may fail", id, ok, r)
				}
			}
			if (err != nil) != (tc.lost >= 0) {
				t.Errorf("ReadBatch error %v, want one only when a requested record is lost", err)
			}
		})
	}
}

// readSyscalls is the process's read syscall count (syscr in /proc/self/io);
// it skips where the file is absent.
func readSyscalls(tb testing.TB) int64 {
	tb.Helper()
	reads, _ := readCounts(tb)
	return reads
}

// readCounts is the process's read syscalls and bytes read (syscr and rchar
// in /proc/self/io); it skips where the file or a field is absent.
func readCounts(tb testing.TB) (reads, bytes int64) {
	tb.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		tb.Skipf("no /proc/self/io: %v", err)
	}
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok || (name != "syscr" && name != "rchar") {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			tb.Fatal(err)
		}
		if name == "syscr" {
			reads = v
		} else {
			bytes = v
		}
		seen++
	}
	if seen != 2 {
		tb.Skip("no syscr or rchar in /proc/self/io")
	}
	return reads, bytes
}

// BenchmarkSpillReadBatch reads one shard's 1,024-record refill batch back
// from a segment where `shards` shards' records interleave, for a bare spec
// (~60 B frames) and one carrying ~1 KiB of arguments and environment. It
// reports read syscalls per record and bytes read per byte requested.
func BenchmarkSpillReadBatch(b *testing.B) {
	for _, spec := range []struct {
		name string
		rec  func(string) Record
	}{{"bare", spillRecord}, {"1KiB", wideSpillRecord}} {
		for _, shards := range []int{1, 2, 8, 16} {
			b.Run(fmt.Sprintf("spec=%s/shards=%d", spec.name, shards), func(b *testing.B) {
				s, err := OpenSpill(b.TempDir(), 0)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				s.Claim()
				var batch []Loc
				need := 0
				for i := 0; i < 1024*shards; i++ {
					loc, err := s.Put(spec.rec(fmt.Sprintf("j%06d", i)))
					if err != nil {
						b.Fatal(err)
					}
					if i%shards == 0 {
						batch = append(batch, loc)
						need += loc.Len()
					}
				}
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
				n := 0
				fn := func(int, Record) { n++ }
				reads0, bytes0 := readCounts(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.ReadBatch(batch, fn); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reads1, bytes1 := readCounts(b)
				if n != b.N*len(batch) {
					b.Fatalf("read %d records, want %d", n, b.N*len(batch))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/record")
				b.ReportMetric(float64(reads1-reads0)/float64(n), "reads/record")
				b.ReportMetric(float64(bytes1-bytes0)/float64(b.N*need), "read-B/need-B")
				b.ReportMetric(float64(need)/float64(len(batch)), "B/record")
			})
		}
	}
}
