package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// SpillStore holds the full specifications of cold-queued jobs on disk so
// the in-memory queue tail can shrink to bare job IDs (the dispatcher's
// hot-window spill, see internal/dispatch). It is an indexed sibling of the
// WAL: records use the same frame format (u32 length | u32 CRC | body) and
// the Submitted record encoding, written append-only into numbered segment
// files, with an in-memory id → (segment, offset, length) index for random
// reads. Segments are reference-counted by their live records and deleted as
// soon as the last one is removed, so the store's footprint tracks the cold
// backlog, not everything ever spilled.
//
// Writes go through a buffered writer under the store's mutex — a Put is a
// frame encode plus a memcpy, cheap enough to call under a scheduling shard
// lock. Reads (GetBatch) snapshot the index under the mutex, then pread the
// frames outside it, sorted by (segment, offset) so a refill batch costs one
// sequential sweep per touched segment. Durability is explicit: Sync flushes
// and fsyncs the active segment (rotation fsyncs a segment before it is
// retired), which the dispatcher invokes before a journal checkpoint makes
// SpillRef records — whose only spec copy lives here — durable truth.
//
// Reopening a directory rescans the surviving segments to rebuild the index,
// so spilled jobs recover across restarts exactly like queued ones.
type SpillStore struct {
	dir      string
	segBytes int64

	mu       sync.Mutex
	closed   bool
	seg      int           // active segment number
	f        *os.File      // active segment, append handle
	w        *bufio.Writer // buffers Puts; flushed before reads and Sync
	buffered bool          // w holds unflushed bytes
	size     int64         // bytes written (incl. buffered) to the active segment
	enc      []byte        // reusable Put frame-encode scratch
	idx      map[string]spillRef
	segRefs  map[int]int // live records per segment
	bytes    int64       // sum of live frame lengths

	liveN atomic.Int64 // len(idx) mirror, for lock-free emptiness checks
}

// spillRef locates one live record.
type spillRef struct {
	seg int
	off int64
	n   int32 // full frame length (header + body)
}

const spillMagic = "JETSSPL1"

func spillSegmentName(n int) string { return fmt.Sprintf("spill-%08d.seg", n) }

// OpenSpill opens (or creates) a spill directory, rebuilding the index from
// any surviving segments. segBytes rotates the active segment past that
// size; <= 0 means 64 MiB.
func OpenSpill(dir string, segBytes int64) (*SpillStore, error) {
	if dir == "" {
		return nil, errors.New("journal: empty spill directory")
	}
	if segBytes <= 0 {
		segBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	nums, err := listSegments(dir, "spill-", ".seg")
	if err != nil {
		return nil, err
	}
	s := &SpillStore{
		dir:      dir,
		segBytes: segBytes,
		idx:      make(map[string]spillRef),
		segRefs:  make(map[int]int),
	}
	last := 0
	for _, n := range nums {
		// Rebuild the index; a torn tail is the unsynced end of the crash
		// being recovered from.
		scanSegment(filepath.Join(dir, spillSegmentName(n)), spillMagic, func(r Record, off int64, frame int) error {
			s.setRefLocked(r.JobID, spillRef{seg: n, off: off, n: int32(frame)})
			return nil
		})
		last = n
	}
	// Drop segments the scan left empty (every record superseded or torn).
	for _, n := range nums {
		if s.segRefs[n] == 0 {
			delete(s.segRefs, n)
			os.Remove(filepath.Join(dir, spillSegmentName(n)))
		}
	}
	s.seg = last + 1
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	s.liveN.Store(int64(len(s.idx)))
	return s, nil
}

// openSegment starts the next active segment. Caller holds s.mu (or is the
// single-threaded Open path).
func (s *SpillStore) openSegment() error {
	f, err := createSegment(filepath.Join(s.dir, spillSegmentName(s.seg)), spillMagic)
	if err != nil {
		return err
	}
	s.f = f
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, 1<<16)
	} else {
		s.w.Reset(f)
	}
	s.buffered = false
	s.size = int64(len(spillMagic))
	return nil
}

// setRefLocked installs (or replaces) the index entry for id. Caller holds
// s.mu (or is the single-threaded Open path).
func (s *SpillStore) setRefLocked(id string, ref spillRef) {
	if old, ok := s.idx[id]; ok {
		s.bytes -= int64(old.n)
		s.dropSegRefLocked(old.seg)
	}
	s.idx[id] = ref
	s.bytes += int64(ref.n)
	s.segRefs[ref.seg]++
}

// dropSegRefLocked releases one record's hold on a segment, deleting the
// file once nothing live remains in it (never the active segment — rotation
// retires that naturally).
func (s *SpillStore) dropSegRefLocked(seg int) {
	s.segRefs[seg]--
	if s.segRefs[seg] <= 0 {
		delete(s.segRefs, seg)
		if seg != s.seg {
			os.Remove(filepath.Join(s.dir, spillSegmentName(seg)))
		}
	}
}

// Put persists one record (keyed by its JobID, replacing any previous entry)
// and returns the frame size written. It buffers — durability comes from
// Sync — and is cheap enough to call under a scheduling lock.
func (s *SpillStore) Put(r Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.enc = appendFrame(s.enc[:0], r)
	if s.size+int64(len(s.enc)) > s.segBytes && s.size > int64(len(spillMagic)) {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
	}
	off := s.size
	if _, err := s.w.Write(s.enc); err != nil {
		return 0, err
	}
	s.buffered = true
	s.size += int64(len(s.enc))
	s.setRefLocked(r.JobID, spillRef{seg: s.seg, off: off, n: int32(len(s.enc))})
	s.liveN.Store(int64(len(s.idx)))
	return len(s.enc), nil
}

// rotateLocked retires the active segment (flushed and fsynced, so only the
// active segment is ever non-durable) and opens the next. Caller holds s.mu.
func (s *SpillStore) rotateLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.buffered = false
	if err := fsyncFile(s.f); err != nil {
		return err
	}
	old, oldSeg := s.f, s.seg
	s.seg++
	if err := s.openSegment(); err != nil {
		s.seg--
		s.f = old
		s.w.Reset(old) // keep appending to the old segment; Reset discards nothing (flushed above)
		return err
	}
	old.Close()
	if s.segRefs[oldSeg] == 0 {
		os.Remove(filepath.Join(s.dir, spillSegmentName(oldSeg)))
	}
	return nil
}

// Get reads one record back. ok is false when the id has no live entry.
func (s *SpillStore) Get(id string) (Record, bool, error) {
	recs, err := s.GetBatch([]string{id})
	r, ok := recs[id]
	return r, ok, err
}

// GetBatch reads the live records for ids into a map keyed by ID (see
// ReadBatch). IDs with no live entry are simply absent from the result; the
// first read error is returned alongside whatever was read successfully.
func (s *SpillStore) GetBatch(ids []string) (map[string]Record, error) {
	out := make(map[string]Record, len(ids))
	err := s.ReadBatch(ids, func(i int, r Record) { out[ids[i]] = r })
	return out, err
}

// ReadBatch reads the live records for ids and calls fn with each one and
// its index in ids. The reads go in (segment, offset) order, so a cold-tail
// refill costs one sequential sweep per touched segment, and records that
// lie end to end on disk — a refill batch spilled in submission order —
// come in with one read. IDs with no live entry are skipped; the first read
// error is returned after every readable record has been passed to fn.
func (s *SpillStore) ReadBatch(ids []string, fn func(i int, r Record)) error {
	type refIdx struct {
		ref spillRef
		i   int
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	refs := make([]refIdx, 0, len(ids))
	needActive := false
	for i, id := range ids {
		if ref, ok := s.idx[id]; ok {
			refs = append(refs, refIdx{ref, i})
			if ref.seg == s.seg {
				needActive = true
			}
		}
	}
	if needActive && s.buffered {
		if err := s.w.Flush(); err != nil {
			s.mu.Unlock()
			return err
		}
		s.buffered = false
	}
	s.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].ref.seg != refs[j].ref.seg {
			return refs[i].ref.seg < refs[j].ref.seg
		}
		return refs[i].ref.off < refs[j].ref.off
	})
	// The reads run outside the mutex: every target record is live (the
	// caller holds its job), so its segment cannot be reclaimed underneath
	// us, and a concurrent rotation never mutates already-written bytes.
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	var f *os.File
	cur := -1
	var buf []byte
	solo := 0 // after a failed run read: refs left to read one at a time
	for len(refs) > 0 {
		// The run: refs[:n] lie end to end in one segment.
		first := refs[0].ref
		n, size := 1, int64(first.n)
		for solo == 0 && n < len(refs) && refs[n].ref.seg == first.seg &&
			refs[n].ref.off == first.off+size && size < maxReadRun {
			size += int64(refs[n].ref.n)
			n++
		}
		if first.seg != cur {
			if f != nil {
				f.Close()
			}
			var err error
			f, err = os.Open(filepath.Join(s.dir, spillSegmentName(first.seg)))
			cur = first.seg
			if err != nil {
				f = nil
				fail(err)
			}
		}
		if f != nil {
			if int(size) > cap(buf) {
				buf = make([]byte, size)
			}
			b := buf[:size]
			if _, err := f.ReadAt(b, first.off); err != nil {
				if n > 1 {
					// Read the run's records one at a time, so that only
					// the unreadable ones fail.
					solo = n
					continue
				}
				fail(err)
			} else {
				for _, r := range refs[:n] {
					rec, used, err := readFrame(b[:r.ref.n])
					b = b[r.ref.n:]
					if err != nil || used != int(r.ref.n) {
						fail(fmt.Errorf("journal: corrupt spill frame for %q", ids[r.i]))
						continue
					}
					fn(r.i, rec)
				}
			}
		}
		refs = refs[n:]
		if solo > 0 {
			solo--
		}
	}
	if f != nil {
		f.Close()
	}
	return firstErr
}

// maxReadRun bounds one ReadBatch read, and so its buffer.
const maxReadRun = 1 << 20

// Remove drops id's entry, reclaiming its segment once empty. Call it when
// the job leaves the spill's custody for good (terminal state, migration to
// a peer, or recovery re-placement) — not on rehydration into the hot
// window: a checkpointed journal may hold only a SpillRef for the job, so
// the spilled spec stays its durable copy until a terminal record exists.
func (s *SpillStore) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.idx[id]
	if !ok {
		return
	}
	delete(s.idx, id)
	s.bytes -= int64(ref.n)
	s.dropSegRefLocked(ref.seg)
	s.liveN.Store(int64(len(s.idx)))
}

// RetainOnly drops every entry whose id is not in keep — the post-recovery
// sweep that discards records belonging to jobs the journal shows terminal.
func (s *SpillStore) RetainOnly(keep map[string]struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ref := range s.idx {
		if _, ok := keep[id]; ok {
			continue
		}
		delete(s.idx, id)
		s.bytes -= int64(ref.n)
		s.dropSegRefLocked(ref.seg)
	}
	s.liveN.Store(int64(len(s.idx)))
}

// Sync makes every Put so far durable (rotation already fsynced the retired
// segments; this flushes and fsyncs the active one).
func (s *SpillStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.buffered {
		if err := s.w.Flush(); err != nil {
			return err
		}
		s.buffered = false
	}
	return fsyncFile(s.f)
}

// Len reports live records.
func (s *SpillStore) Len() int { return int(s.liveN.Load()) }

// Bytes reports the byte footprint of the live records.
func (s *SpillStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Segments reports how many segment files hold live records (plus the
// active segment).
func (s *SpillStore) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.segRefs)
	if s.segRefs[s.seg] == 0 {
		n++ // active segment not yet counted
	}
	return n
}

// Close flushes and releases the active segment. The files are left on disk:
// a durable spill directory is recovered by the next OpenSpill, and an
// ephemeral one is the caller's to delete.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
