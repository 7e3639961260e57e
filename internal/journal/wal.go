package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// WAL is the durable Journal: an append-only log split into numbered
// segment files. Each record is framed as
//
//	u32 body length | u32 CRC-32 (IEEE) of the body | body
//
// and each segment starts with an 8-byte magic. Appends go into an
// in-memory buffer under a short mutex; a flusher goroutine group-commits
// the buffer — one write plus one fsync — on a fixed cadence (default 2 ms,
// deliberately matching the engine's batch-flush cadence so the durable
// submit path amortizes the same way the wire path does). A crash loses at
// most one flush interval of appends; everything behind the last fsync
// replays exactly.
//
// Replay scans the segments that existed at Open in name order. A torn or
// corrupt frame ends that segment's scan (the unsynced tail of a crash, or a
// segment abandoned by the degraded-commit retry below); later segments
// still replay. Records appended after Open land in a fresh segment, so
// Compact can drop the replayed history once the caller has re-journaled the
// live state.
//
// A failed commit (write or fsync error) does not permanently disable the
// log: the flush buffer is kept, the error is held in w.err, and the flusher
// retries on a capped exponential backoff — rotating to a fresh segment
// first, since the failed segment may end in a torn frame. A successful
// retry clears the error. While degraded, Append keeps buffering (bounded by
// maxPendingBytes) so a transient blip loses nothing; only records that
// arrive with the buffer full are dropped, and those return the error so the
// caller can count them.
type WAL struct {
	opts Options

	mu      sync.Mutex // guards pending, spare, size, f, seg, first, closed, err, retry*
	pending []byte
	spare   []byte // recycled flush buffer: pending at the next flush, or the next Append
	f       *os.File
	seg     int
	first   int   // oldest segment still on disk (Segments gauge, Checkpoint sweep)
	size    int64 // bytes written + pending in the active segment
	closed  bool
	err     error // last commit failure; cleared when a retry commits

	retryAt      time.Time     // earliest next commit attempt while degraded
	retryBackoff time.Duration // doubles per failed attempt, capped
	failCommits  int           // test hook: fail the next n commit attempts

	flushMu sync.Mutex // serializes flush bodies (writer goroutine + Sync + Checkpoint)

	replay    []string // segments present at Open, consumed by Replay/Compact
	openFresh int      // first post-Open segment number (what Compact keeps)

	quit chan struct{}
	done chan struct{}
}

// Options parameterizes a WAL.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size;
	// default 64 MiB. Rotation happens on frame boundaries.
	SegmentBytes int64
	// FsyncInterval is the group-commit cadence; default 2ms. Appends are
	// durable after the flush tick that follows them (or an explicit Sync).
	FsyncInterval time.Duration
}

const (
	walMagic       = "JETSWAL1"
	frameHeaderLen = 8
	// maxBodyLen rejects absurd frame lengths when a corrupt header happens
	// to pass the length read.
	maxBodyLen = 16 << 20
	// maxPendingBytes bounds the pending buffer while commits are failing:
	// past it, new appends are dropped (and reported) instead of growing the
	// heap without bound waiting for the disk to come back.
	maxPendingBytes = 16 << 20
	// retryBackoffMin/Max bracket the degraded-commit retry cadence.
	retryBackoffMin = 10 * time.Millisecond
	retryBackoffMax = 5 * time.Second
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("journal: WAL is closed")

func segmentName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

// OpenWAL opens (or creates) the journal directory, records the existing
// segments for Replay, starts a fresh active segment, and begins the
// flusher.
func OpenWAL(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: empty WAL directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 2 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	nums, err := listSegments(opts.Dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	segs := make([]string, len(nums))
	for i, n := range nums {
		segs[i] = filepath.Join(opts.Dir, segmentName(n))
	}
	last, first := 0, 1
	if len(nums) > 0 {
		first, last = nums[0], nums[len(nums)-1]
	}
	w := &WAL{
		opts:      opts,
		seg:       last + 1,
		first:     first,
		replay:    segs,
		openFresh: last + 1,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	go w.flusher()
	return w, nil
}

// openSegment creates the next active segment and writes its magic. Caller
// is single-threaded (Open) or holds both flushMu and mu (rotation).
func (w *WAL) openSegment() error {
	f, err := createSegment(filepath.Join(w.opts.Dir, segmentName(w.seg)), walMagic)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.size = int64(len(walMagic))
	return nil
}

// Append implements Journal: frame the record straight into the pending
// buffer, so the submit hot path pays no per-record allocation. The disk is
// never touched here; durability comes from the flusher cadence or Sync.
func (w *WAL) Append(r Record) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.err != nil && len(w.pending) >= maxPendingBytes {
		// Degraded and the retry buffer is full: drop the record and report
		// it. Below the cap, degraded appends keep buffering and return nil —
		// a commit retry will land them, so they are not (yet) lost.
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.pending == nil && w.spare != nil {
		w.pending, w.spare = w.spare, nil
	}
	start := len(w.pending)
	w.pending = appendFrame(w.pending, r)
	w.size += int64(len(w.pending) - start)
	w.mu.Unlock()
	appendsTotal.Inc()
	return nil
}

// Sync implements Journal: force a group commit now. An explicit Sync
// ignores the degraded-retry backoff and attempts the commit immediately.
func (w *WAL) Sync() error { return w.flush(true) }

// bumpRetryLocked schedules the next degraded-commit attempt, doubling the
// backoff per failure up to retryBackoffMax. Caller holds w.mu.
func (w *WAL) bumpRetryLocked() {
	if w.retryBackoff < retryBackoffMin {
		w.retryBackoff = retryBackoffMin
	} else if w.retryBackoff < retryBackoffMax {
		w.retryBackoff *= 2
		if w.retryBackoff > retryBackoffMax {
			w.retryBackoff = retryBackoffMax
		}
	}
	w.retryAt = time.Now().Add(w.retryBackoff)
}

// flush writes and fsyncs the pending buffer, then rotates the segment if
// it outgrew SegmentBytes. Serialized by flushMu so the ticker goroutine
// and explicit Syncs never interleave writes.
//
// On a commit failure the buffer is restored to the front of pending and the
// error parked in w.err; the next attempt (flusher tick past retryAt, or any
// forced flush) first rotates to a fresh segment — the failed one may hold a
// torn or partially duplicated frame, which Replay's per-segment skip
// tolerates — and a successful commit clears the error.
func (w *WAL) flush(force bool) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.err != nil {
		if !force && time.Now().Before(w.retryAt) {
			err := w.err
			w.mu.Unlock()
			return err
		}
		// Retry: abandon the possibly-torn active segment.
		w.seg++
		if oerr := w.openSegment(); oerr != nil {
			w.seg--
			w.bumpRetryLocked()
			err := w.err
			w.mu.Unlock()
			return err
		}
		w.size = int64(len(walMagic)) + int64(len(w.pending))
	}
	buf := w.pending
	if len(buf) > 0 {
		// Appends made during the commit go to the spare buffer, not to one
		// regrown from nil.
		w.pending, w.spare = w.spare, nil
	}
	f := w.f
	rotate := w.size > w.opts.SegmentBytes
	degraded := w.err != nil
	inject := w.failCommits > 0
	if inject {
		w.failCommits--
	}
	w.mu.Unlock()
	if len(buf) == 0 && !rotate && !degraded {
		return nil
	}
	if len(buf) > 0 || inject {
		start := time.Now()
		var err error
		if inject {
			err = errInjectedCommit
		} else if _, err = f.Write(buf); err == nil {
			err = fsyncFile(f)
		}
		fsyncSeconds.Observe(time.Since(start))
		if err != nil {
			w.mu.Lock()
			// Keep the records: restore the buffer ahead of anything appended
			// since it was taken out, preserving order for the retry.
			if len(w.pending) == 0 {
				w.pending = buf
			} else {
				w.pending = append(buf, w.pending...)
			}
			w.err = err
			w.bumpRetryLocked()
			w.mu.Unlock()
			return err
		}
		if cap(buf) <= 1<<20 { // recycle the buffer unless a burst bloated it
			w.mu.Lock()
			w.spare = buf[:0]
			w.mu.Unlock()
		}
	}
	w.mu.Lock()
	if w.err != nil {
		// The commit that just succeeded (or the empty buffer on a fresh
		// segment) ends the degraded episode.
		w.err = nil
		w.retryBackoff = 0
	}
	if rotate && !w.closed {
		w.seg++
		if err := w.openSegment(); err != nil {
			w.err = err
			w.bumpRetryLocked()
		}
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// errInjectedCommit is the test hook's synthetic commit failure.
var errInjectedCommit = errors.New("journal: injected commit failure")

// Degraded reports whether the last commit attempt failed — the WAL is
// buffering appends and retrying, but nothing new is reaching the disk.
func (w *WAL) Degraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

func (w *WAL) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.flush(false)
		case <-w.quit:
			return
		}
	}
}

// Replay implements Journal: stream the records of the segments that
// existed at Open, oldest first. A torn or corrupt frame ends that
// *segment's* scan quietly and replay continues with the next segment: a
// torn tail is either the unsynced end of the crash the WAL exists to
// survive (final segment — nothing follows anyway) or a segment the
// degraded-commit retry abandoned mid-write, whose records were re-committed
// into the segment that follows.
func (w *WAL) Replay(fn func(Record) error) error {
	for _, path := range w.replay {
		err := scanSegment(path, walMagic, func(r Record, _ int64, _ int) error { return fn(r) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact implements Journal: delete the segments Replay consumed. Call it
// only after re-journaling the live state and Syncing — the fresh segments
// started at Open are never touched, so a crash between Sync and Compact
// merely replays some records twice (replay is idempotent per job ID).
func (w *WAL) Compact() error {
	var first error
	for _, path := range w.replay {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	w.replay = nil
	w.mu.Lock()
	if w.openFresh > w.first {
		w.first = w.openFresh
	}
	w.mu.Unlock()
	return first
}

// Segments implements Checkpointer: the number of segments currently on
// disk, the threshold signal for an online checkpoint.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg - w.first + 1
}

// Checkpoint implements Checkpointer: rotate to a fresh segment, stream the
// caller's snapshot of the live state into it, fsync, and delete every older
// segment. flushMu is held throughout, so no group commit can land records
// in a segment about to be dropped — appends made while the snapshot is
// being taken stay in the pending buffer and flush into the checkpoint
// segment *after* the snapshot records, replaying on top of them.
//
// The crash-safety argument is Compact's: the snapshot is fsynced before
// anything is deleted, and a crash between the fsync and the deletions
// merely replays some records twice (replay is idempotent per job ID).
func (w *WAL) Checkpoint(write func(emit func(Record) error) error) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.err != nil {
		// Degraded: dropping history while new commits are failing could
		// delete the only durable copy of the live state. Let the flusher's
		// retry clear the error first.
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.seg++
	if err := w.openSegment(); err != nil {
		w.seg--
		w.err = err
		w.bumpRetryLocked()
		w.mu.Unlock()
		return err
	}
	ckSeg := w.seg
	f := w.f
	w.mu.Unlock()

	var buf []byte
	written := 0
	var ioErr error
	flushBuf := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := f.Write(buf); err != nil {
			ioErr = err
			return err
		}
		written += len(buf)
		buf = buf[:0]
		return nil
	}
	emit := func(r Record) error {
		buf = appendFrame(buf, r)
		if len(buf) >= 1<<20 {
			return flushBuf()
		}
		return nil
	}
	err := write(emit)
	if err == nil {
		err = flushBuf()
	}
	if err == nil {
		if ferr := fsyncFile(f); ferr != nil {
			err, ioErr = ferr, ferr
		}
	}
	if err != nil {
		// Abort: the old segments are untouched and still cover everything;
		// the partial snapshot in the new segment replays idempotently. Only
		// a WAL I/O failure marks the log degraded — a snapshot-side error
		// (the callback's) is the caller's to handle.
		if ioErr != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = ioErr
				w.bumpRetryLocked()
			}
			w.mu.Unlock()
		}
		return err
	}
	w.mu.Lock()
	first := w.first
	w.first = ckSeg
	if w.openFresh < ckSeg {
		w.openFresh = ckSeg
	}
	w.size += int64(written)
	w.mu.Unlock()
	for n := first; n < ckSeg; n++ {
		os.Remove(filepath.Join(w.opts.Dir, segmentName(n)))
	}
	w.replay = nil
	return nil
}

// Close implements Journal: stop the flusher, commit the tail, and release
// the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	err := w.flush(true)
	w.mu.Lock()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.mu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// Record encoding. Strings are u32 length + bytes; integers little-endian
// fixed width. Only the fields the record's Kind uses are written.

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func encodeRecord(b []byte, r Record) []byte {
	b = append(b, byte(r.Kind))
	b = appendString(b, r.JobID)
	switch r.Kind {
	case Submitted:
		b = append(b, byte(r.JobType))
		b = binary.LittleEndian.AppendUint32(b, 0) // priority slot: written 0, ignored on read
		b = binary.LittleEndian.AppendUint32(b, uint32(r.NProcs))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.WallLimit))
		b = appendString(b, r.Cmd)
		b = appendString(b, r.Dir)
		b = appendStrings(b, r.Args)
		b = appendStrings(b, r.Env)
	case Completed:
		failed := byte(0)
		if r.Failed {
			failed = 1
		}
		b = append(b, failed)
	case Retried:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Attempt))
	case Migrated:
		b = appendString(b, r.Node)
	case SpillRef:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Attempt))
	}
	return b
}

// decoder is a bounds-checked cursor over a record body. The CRC already
// vouches for the bytes; the checks here guard against records written by a
// future, incompatible version.
type decoder struct {
	b   []byte
	err error
}

var errShortRecord = errors.New("journal: short record")

func (d *decoder) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.err = errShortRecord
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = errShortRecord
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = errShortRecord
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.err = errShortRecord
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) strs() []string {
	n := d.u32()
	if d.err == nil && n > uint32(len(d.b)) { // each entry needs at least a length prefix
		d.err = errShortRecord
	}
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.str())
		if d.err != nil {
			return nil
		}
	}
	return out
}

func decodeRecord(body []byte) (Record, error) {
	d := &decoder{b: body}
	var r Record
	r.Kind = Kind(d.u8())
	r.JobID = d.str()
	switch r.Kind {
	case Submitted:
		r.JobType = int(d.u8())
		d.u32() // priority slot, kept so files written before and after it emptied read alike
		r.NProcs = int(d.u32())
		r.WallLimit = time.Duration(d.u64())
		r.Cmd = d.str()
		r.Dir = d.str()
		r.Args = d.strs()
		r.Env = d.strs()
	case Completed:
		r.Failed = d.u8() != 0
	case Retried:
		r.Attempt = int(d.u32())
	case Migrated:
		r.Node = d.str()
	case SpillRef:
		r.Attempt = int(d.u32())
	case Dispatched:
	default:
		return r, fmt.Errorf("journal: unknown record kind %d", r.Kind)
	}
	return r, d.err
}
