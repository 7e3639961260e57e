package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countingFile is an in-memory WriterAt that counts accesses across ranks.
type countingFile struct {
	mu       sync.Mutex
	data     []byte
	accesses atomic.Int64
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.accesses.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	for int64(len(f.data)) < end {
		f.data = append(f.data, 0)
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

func TestWriteAtAllCoalesces(t *testing.T) {
	const n, block = 16, 64
	file := &countingFile{}
	var aggs atomic.Int64
	if err := RunLocal(n, func(c *Comm) error {
		data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, block)
		st, err := c.WriteAtAll(file, int64(c.Rank()*block), data, 2)
		if err != nil {
			return err
		}
		if st.Aggregator {
			aggs.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// N/8 clients: 2 aggregators for 16 ranks.
	if aggs.Load() != 2 {
		t.Fatalf("aggregators=%d", aggs.Load())
	}
	// Contiguous extents coalesce into exactly one access per aggregator.
	if file.accesses.Load() != 2 {
		t.Fatalf("file accesses=%d want 2", file.accesses.Load())
	}
	// Content correct.
	if len(file.data) != n*block {
		t.Fatalf("file size %d", len(file.data))
	}
	for r := 0; r < n; r++ {
		for i := 0; i < block; i++ {
			if file.data[r*block+i] != byte(r+1) {
				t.Fatalf("byte %d of rank %d block = %d", i, r, file.data[r*block+i])
			}
		}
	}
}

func TestWriteAtAllNonContiguous(t *testing.T) {
	// Gaps between extents must produce separate accesses, not corruption.
	file := &countingFile{}
	if err := RunLocal(4, func(c *Comm) error {
		data := []byte{byte(c.Rank())}
		_, err := c.WriteAtAll(file, int64(c.Rank()*10), data, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if file.accesses.Load() != 4 {
		t.Fatalf("accesses=%d want 4 (no coalescing across gaps)", file.accesses.Load())
	}
	for r := 0; r < 4; r++ {
		if file.data[r*10] != byte(r) {
			t.Fatalf("rank %d byte=%d", r, file.data[r*10])
		}
	}
}

func TestCollectiveIOValidation(t *testing.T) {
	if err := RunLocal(1, func(c *Comm) error {
		if _, err := c.WriteAtAll(nil, 0, []byte("x"), 0); err == nil {
			return fmt.Errorf("zero aggregators accepted")
		}
		if _, err := c.WriteAtAll(nil, 0, []byte("x"), 1); err == nil {
			return fmt.Errorf("nil writer on aggregator accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorInfoPartition(t *testing.T) {
	for _, tc := range []struct{ size, naggs int }{{16, 2}, {7, 3}, {5, 5}, {4, 9}} {
		seen := map[int]bool{}
		for rank := 0; rank < tc.size; rank++ {
			agg, lo, hi := aggregatorInfo(rank, tc.size, tc.naggs)
			if agg != lo {
				t.Fatalf("size=%d naggs=%d rank=%d: agg %d != lo %d", tc.size, tc.naggs, rank, agg, lo)
			}
			if rank < lo || rank >= hi {
				t.Fatalf("rank %d outside its group [%d,%d)", rank, lo, hi)
			}
			seen[agg] = true
		}
		wantAggs := tc.naggs
		if wantAggs > tc.size {
			wantAggs = tc.size
		}
		if len(seen) != wantAggs {
			t.Fatalf("size=%d naggs=%d: %d aggregators", tc.size, tc.naggs, len(seen))
		}
	}
}
