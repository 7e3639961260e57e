package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The segment-file mechanics the WAL and the SpillStore share: numbered files
// in one directory, each a magic string followed by frames of
// u32 body length | u32 CRC-32 of the body | body, all little-endian.

// listSegments returns, ascending, the numbers of the files in dir named
// prefix<number>suffix.
func listSegments(dir, prefix, suffix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []int
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), prefix)
		if ok {
			digits, ok = strings.CutSuffix(digits, suffix)
		}
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(digits); err == nil {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	return nums, nil
}

// createSegment creates (truncating) a segment file holding only its magic.
func createSegment(path, magic string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// appendFrame appends r to b as one frame. The record is encoded in place and
// the header patched in afterwards, so a caller reusing b pays no allocation.
func appendFrame(b []byte, r Record) []byte {
	start := len(b)
	b = append(b, make([]byte, frameHeaderLen)...)
	b = encodeRecord(b, r)
	body := b[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(body))
	return b
}

var errBadFrame = errors.New("journal: torn or corrupt frame")

// readFrame decodes the frame at the head of data and reports its length.
func readFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeaderLen {
		return Record{}, 0, errBadFrame
	}
	bodyLen := binary.LittleEndian.Uint32(data[0:4])
	// maxBodyLen catches a corrupt length that happens to fit the data (the
	// CRC catches corrupt bodies).
	if bodyLen > maxBodyLen || int(bodyLen) > len(data)-frameHeaderLen {
		return Record{}, 0, errBadFrame
	}
	n := frameHeaderLen + int(bodyLen)
	if crc32.ChecksumIEEE(data[frameHeaderLen:n]) != binary.LittleEndian.Uint32(data[4:8]) {
		return Record{}, 0, errBadFrame
	}
	rec, err := decodeRecord(data[frameHeaderLen:n])
	return rec, n, err
}

// scanSegment calls fn with each record of the segment file at path, its
// offset in the file and its frame length. A missing or foreign file, or a
// torn or corrupt frame, ends the scan quietly — the rest of the segment is
// untrusted — and only fn's error is returned.
func scanSegment(path, magic string, fn func(r Record, off int64, n int) error) error {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil
	}
	for off := len(magic); off < len(data); {
		rec, n, err := readFrame(data[off:])
		if err != nil {
			return nil
		}
		if err := fn(rec, int64(off), n); err != nil {
			return err
		}
		off += n
	}
	return nil
}
