package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// SpillStore holds the full specifications of cold-queued jobs on disk so
// the in-memory queue tail can shrink to bare job records (the dispatcher's
// hot-window spill, see internal/dispatch). It is a sibling of the WAL:
// records use the same frame format (u32 length | u32 CRC | body) and the
// Submitted record encoding, written append-only into numbered segment
// files. Segments are reference-counted by their live records and deleted as
// soon as the last one is released, so the store's footprint tracks the cold
// backlog, not everything ever spilled.
//
// Records are addressed by location: Put returns the record's Loc, the owner
// keeps it beside its own job, and ReadBatch and Release take it back. The
// store keeps a by-ID view only until its owner calls Claim — OpenSpill's
// rescan of the surviving segments builds it, so recovery can find each
// spilled job's record, and GetBatch and Remove read it. After Claim the
// store holds no per-job map at all.
//
// A Put is a frame encode plus a memcpy into the store's pending buffer,
// cheap enough to call under a scheduling shard lock; the buffer is written
// to the active segment once it holds 64 KiB, and on Sync, rotation and
// Close. Reads take the records still pending from that buffer and pread the
// rest outside the mutex, one read per segment span. A failed write or
// fsync makes every later Put fail (the owner keeps those jobs in memory)
// while each record already accepted stays readable from the buffer.
// Durability is explicit: Sync writes and fsyncs the active segment
// (rotation fsyncs a segment before it is retired), which the dispatcher
// invokes before a journal checkpoint makes SpillRef records — whose only
// spec copy lives here — durable truth.
type SpillStore struct {
	dir      string
	segBytes int64

	open func(name string) (segmentReader, error) // ReadBatch's segment opener: openSegmentReader, or a failing reader in tests

	mu      sync.Mutex
	closed  bool
	err     error          // first write or fsync failure; later Puts fail with it
	seg     int32          // active segment number
	f       *os.File       // active segment, append handle
	out     io.Writer      // where pending bytes are written: f, or a failing writer in tests
	written int64          // bytes of the active segment on disk, its magic included
	pend    []byte         // frames Put but not yet written: the active segment's bytes from written on
	enc     []byte         // reusable Put frame-encode scratch
	rbuf    []byte         // ReadBatch's read buffer, kept between calls
	segRefs map[int32]int  // live records per segment
	bytes   int64          // sum of live frame lengths
	idx     map[string]Loc // by-ID view until Claim; nil after

	liveN atomic.Int64 // live records, for lock-free emptiness checks
}

// Loc locates one spilled record: its segment, its offset there and its
// frame length. The zero Loc names no record (segments count from 1).
type Loc struct {
	seg int32
	n   int32
	off int64
}

// Len is the record's frame length in bytes.
func (l Loc) Len() int { return int(l.n) }

const (
	spillMagic = "JETSSPL1"
	// spillFlushBytes is how much the pending buffer holds before a Put
	// writes it to the active segment.
	spillFlushBytes = 64 << 10
	// maxReadRun bounds one ReadBatch read, and so its buffer.
	maxReadRun = 1 << 20
	// maxReadGap is the widest stretch of unrequested records (other
	// shards', released ones) one ReadBatch read spans; a wider gap starts
	// a new read. Copying it costs about what a pread does.
	maxReadGap = 4 << 10
)

// segmentReader is what ReadBatch reads a segment through.
type segmentReader interface {
	io.ReaderAt
	io.Closer
}

func openSegmentReader(name string) (segmentReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func spillSegmentName(n int32) string { return fmt.Sprintf("spill-%08d.seg", n) }

// OpenSpill opens (or creates) a spill directory, rebuilding the by-ID view
// from any surviving segments. segBytes rotates the active segment past that
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
		open:     openSegmentReader,
		idx:      make(map[string]Loc),
		segRefs:  make(map[int32]int),
	}
	var last int32
	for _, n := range nums {
		seg := int32(n)
		// A torn tail is the unsynced end of the crash being recovered from.
		scanSegment(filepath.Join(dir, spillSegmentName(seg)), spillMagic, func(r Record, off int64, frame int) error {
			s.holdLocked(Loc{seg: seg, n: int32(frame), off: off})
			s.indexLocked(r.JobID, Loc{seg: seg, n: int32(frame), off: off})
			return nil
		})
		last = seg
	}
	// Drop segments the scan left empty (every record superseded or torn).
	for _, n := range nums {
		if s.segRefs[int32(n)] == 0 {
			delete(s.segRefs, int32(n))
			os.Remove(filepath.Join(dir, spillSegmentName(int32(n))))
		}
	}
	s.seg = last + 1
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// openSegment starts the active segment s.seg. Caller holds s.mu (or is the
// single-threaded Open path); on error nothing changes.
func (s *SpillStore) openSegment() error {
	f, err := createSegment(filepath.Join(s.dir, spillSegmentName(s.seg)), spillMagic)
	if err != nil {
		return err
	}
	s.f, s.out, s.written = f, f, int64(len(spillMagic))
	return nil
}

// holdLocked counts a new live record. Caller holds s.mu.
func (s *SpillStore) holdLocked(l Loc) {
	s.segRefs[l.seg]++
	s.bytes += int64(l.n)
	s.liveN.Add(1)
}

// releaseLocked drops one record's hold on its segment, deleting the file
// once nothing live remains in it (never the active segment — rotation
// retires that). Caller holds s.mu.
func (s *SpillStore) releaseLocked(l Loc) {
	s.bytes -= int64(l.n)
	s.liveN.Add(-1)
	s.segRefs[l.seg]--
	if s.segRefs[l.seg] <= 0 {
		delete(s.segRefs, l.seg)
		if l.seg != s.seg {
			os.Remove(filepath.Join(s.dir, spillSegmentName(l.seg)))
		}
	}
}

// indexLocked points the by-ID view at the record, releasing the one it
// replaces (a retried job that spilled again). Caller holds s.mu and s.idx is
// not nil.
func (s *SpillStore) indexLocked(id string, l Loc) {
	if old, ok := s.idx[id]; ok {
		s.releaseLocked(old)
	}
	s.idx[id] = l
}

// Put appends one record and returns its location, which the caller keeps
// until it releases the record. It writes nothing unless the pending buffer
// is full, so it is cheap enough to call under a scheduling lock;
// durability comes from Sync. Once a write has failed, Put fails too.
func (s *SpillStore) Put(r Record) (Loc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Loc{}, ErrClosed
	}
	if s.err != nil {
		return Loc{}, s.err
	}
	s.enc = appendFrame(s.enc[:0], r)
	off := s.written + int64(len(s.pend))
	if off+int64(len(s.enc)) > s.segBytes && off > int64(len(spillMagic)) {
		if err := s.rotateLocked(); err != nil {
			return Loc{}, err
		}
		off = s.written
	}
	l := Loc{seg: s.seg, n: int32(len(s.enc)), off: off}
	s.pend = append(s.pend, s.enc...)
	s.holdLocked(l)
	if s.idx != nil {
		s.indexLocked(r.JobID, l)
	}
	if len(s.pend) >= spillFlushBytes {
		// A failure here is the next Put's: this record stays readable from
		// the buffer.
		s.flushLocked()
	}
	return l, nil
}

// flushLocked writes the pending buffer to the active segment. A failed or
// short write keeps every pending byte — its records stay readable from
// memory — and turns the store's error on. Caller holds s.mu.
func (s *SpillStore) flushLocked() error {
	if s.err != nil || len(s.pend) == 0 {
		return s.err
	}
	n, err := s.out.Write(s.pend)
	if err == nil && n < len(s.pend) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.err = err
		return err
	}
	s.written += int64(n)
	s.pend = s.pend[:0]
	return nil
}

// syncLocked writes the pending buffer and fsyncs the active segment.
// Caller holds s.mu.
func (s *SpillStore) syncLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := fsyncFile(s.f); err != nil {
		s.err = err
		return err
	}
	return nil
}

// rotateLocked retires the active segment (written and fsynced, so only the
// active segment is ever non-durable) and opens the next. Caller holds s.mu.
func (s *SpillStore) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	old, oldSeg := s.f, s.seg
	s.seg++
	if err := s.openSegment(); err != nil {
		s.seg-- // keep appending to the old segment
		return err
	}
	old.Close()
	if s.segRefs[oldSeg] == 0 {
		os.Remove(filepath.Join(s.dir, spillSegmentName(oldSeg)))
	}
	return nil
}

// GetBatch reads the records the by-ID view holds for ids into a map keyed
// by ID. IDs with no entry — and every ID once the view is claimed — are
// absent from the result; the first read error is returned alongside
// whatever was read.
func (s *SpillStore) GetBatch(ids []string) (map[string]Record, error) {
	locs := make([]Loc, len(ids))
	s.mu.Lock()
	for i, id := range ids {
		locs[i] = s.idx[id]
	}
	s.mu.Unlock()
	out := make(map[string]Record, len(ids))
	err := s.ReadBatch(locs, func(i int, r Record) { out[ids[i]] = r })
	return out, err
}

// ReadBatch reads the records at locs and calls fn with each one and its
// index in locs; zero Locs are skipped. Records still in the pending buffer
// are copied out under the mutex. The rest are read outside it in
// (segment, offset) order: one read takes in a segment's requested records
// for as long as the next one lies within maxReadGap of the last and the
// read stays within maxReadRun, so the bytes it reads past what was asked
// for are at most maxReadGap per requested record. When a read stops short,
// the records past its end are read one at a time, so only the unreadable
// ones fail. The first error is returned after every readable record has
// gone to fn.
//
// Every Loc must be held by the caller (not yet released): a segment stays
// on disk while it holds a live record, and written bytes never change.
func (s *SpillStore) ReadBatch(locs []Loc, fn func(i int, r Record)) error {
	order := make([]int, 0, len(locs))
	for i, l := range locs {
		if l.seg != 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := locs[order[a]], locs[order[b]]
		if la.seg != lb.seg {
			return la.seg < lb.seg
		}
		return la.off < lb.off
	})
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// The records not yet written sort last: they are the active segment's
	// newest bytes.
	disk := len(order)
	for disk > 0 {
		l := locs[order[disk-1]]
		if l.seg != s.seg || l.off < s.written {
			break
		}
		disk--
	}
	var tail []byte
	var tailOff int64
	if disk < len(order) {
		tailOff = locs[order[disk]].off
		last := locs[order[len(order)-1]]
		tail = append(tail, s.pend[tailOff-s.written:last.off+int64(last.n)-s.written]...)
	}
	buf := s.rbuf // taken, so concurrent calls never share it
	s.rbuf = nil
	s.mu.Unlock()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	// deliver decodes locs[i]'s record from b, its frame.
	deliver := func(i int, b []byte) {
		rec, used, err := readFrame(b)
		if err != nil || used != len(b) {
			fail(fmt.Errorf("journal: corrupt spill frame at segment %d offset %d", locs[i].seg, locs[i].off))
			return
		}
		fn(i, rec)
	}
	for lo := 0; lo < disk; {
		seg := locs[order[lo]].seg
		end := lo
		for end < disk && locs[order[end]].seg == seg {
			end++
		}
		f, err := s.open(filepath.Join(s.dir, spillSegmentName(seg)))
		if err != nil {
			fail(err)
			lo = end
			continue
		}
		for lo < end {
			// One read: order[lo:hi], each record within maxReadGap of the
			// one before and all within maxReadRun of the first.
			base := locs[order[lo]].off
			stop := base + int64(locs[order[lo]].n)
			hi := lo + 1
			for ; hi < end; hi++ {
				l := locs[order[hi]]
				if l.off-stop > maxReadGap || l.off+int64(l.n)-base > maxReadRun {
					break
				}
				stop = l.off + int64(l.n)
			}
			if int(stop-base) > cap(buf) {
				buf = make([]byte, stop-base)
			}
			n, _ := f.ReadAt(buf[:stop-base], base) // n < stop-base only with an error
			for _, i := range order[lo:hi] {
				l := locs[i]
				b := buf[l.off-base : l.off-base+int64(l.n)]
				if l.off+int64(l.n)-base > int64(n) {
					// Past where the read stopped: read this record alone.
					if _, err := f.ReadAt(b, l.off); err != nil {
						fail(fmt.Errorf("journal: reading spill record at segment %d offset %d: %w", l.seg, l.off, err))
						continue
					}
				}
				deliver(i, b)
			}
			lo = hi
		}
		f.Close()
	}
	for _, i := range order[disk:] {
		l := locs[i]
		deliver(i, tail[l.off-tailOff:l.off-tailOff+int64(l.n)])
	}
	s.mu.Lock()
	if cap(buf) > cap(s.rbuf) {
		s.rbuf = buf
	}
	s.mu.Unlock()
	return firstErr
}

// Release drops the record at l, reclaiming its segment once empty. Call it
// when the job leaves the spill's custody for good (terminal state, or a
// newer record of the same job) — not on
// rehydration into the hot window: a checkpointed journal may hold only a
// SpillRef for the job, so the spilled spec stays its durable copy until a
// terminal record exists.
func (s *SpillStore) Release(l Loc) {
	if l.seg == 0 {
		return
	}
	s.mu.Lock()
	s.releaseLocked(l)
	s.mu.Unlock()
}

// Remove releases the record the by-ID view holds for id; a no-op once the
// view is claimed.
func (s *SpillStore) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.idx[id]; ok {
		delete(s.idx, id)
		s.releaseLocked(l)
	}
}

// Claim hands the by-ID view to the store's owner and ends it: each record's
// Loc is the owner's to keep or Release, and from here on the store keeps no
// per-job map. A second Claim returns nil.
func (s *SpillStore) Claim() map[string]Loc {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.idx
	s.idx = nil
	return idx
}

// Sync makes every Put so far durable (rotation already fsynced the retired
// segments; this writes and fsyncs the active one).
func (s *SpillStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

// Len reports live records.
func (s *SpillStore) Len() int { return int(s.liveN.Load()) }

// Bytes reports the byte footprint of the live records.
func (s *SpillStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Close writes the pending buffer and releases the active segment. The
// files are left on disk: a durable spill directory is recovered by the next
// OpenSpill, and an ephemeral one is the caller's to delete.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.flushLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
