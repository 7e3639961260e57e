package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Collective I/O in the style of MPI-IO's two-phase optimization. The paper
// motivates MPTC partly through this (§1.2): "for 16-process MPTC tasks
// using MPI-IO, the number of [filesystem] clients would be N/16" — a
// subset of ranks act as aggregators, coalescing the job's extents into
// large contiguous accesses, and only they touch the storage system. §7
// lists experimenting with MPI-IO from JETS-initiated workloads as future
// work; this file implements that layer.

// IOStats reports what a collective operation did at this rank.
type IOStats struct {
	// Aggregator reports whether this rank performed filesystem accesses.
	Aggregator bool
	// Accesses is the number of WriteAt calls issued by this rank.
	Accesses int
	// Bytes written to storage by this rank.
	Bytes int64
}

// aggregatorFor maps a rank to its aggregator: ranks are striped into
// naggs contiguous groups and the first rank of each group aggregates.
func aggregatorInfo(rank, size, naggs int) (agg int, groupLo, groupHi int) {
	if naggs > size {
		naggs = size
	}
	per := size / naggs
	extra := size % naggs
	// Groups: the first `extra` groups have per+1 members.
	lo := 0
	for g := 0; g < naggs; g++ {
		n := per
		if g < extra {
			n++
		}
		if rank < lo+n {
			return lo, lo, lo + n
		}
		lo += n
	}
	return lo - 1, lo - 1, size // unreachable for valid input
}

type extent struct {
	off  int64
	data []byte
}

func packExtent(off int64, data []byte) []byte {
	out := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(out, uint64(off))
	copy(out[8:], data)
	return out
}

func unpackExtent(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("mpi: truncated extent")
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// WriteAtAll collectively writes each rank's data at its file offset using
// naggs aggregator ranks (two-phase I/O): non-aggregators ship their extent
// to their aggregator, which sorts, coalesces adjacent extents, and issues
// the minimal number of WriteAt calls. Only aggregator ranks use w; other
// ranks may pass nil. The call is collective and internally barriered.
func (c *Comm) WriteAtAll(w io.WriterAt, off int64, data []byte, naggs int) (IOStats, error) {
	var st IOStats
	if naggs < 1 {
		return st, fmt.Errorf("mpi: need at least one aggregator, got %d", naggs)
	}
	tag := c.nextCollTag()
	agg, lo, hi := aggregatorInfo(c.rank, c.size, naggs)

	if c.rank != agg {
		if err := c.tr.send(agg, tag, packExtent(off, data)); err != nil {
			return st, err
		}
		return st, c.Barrier()
	}

	// Aggregator: collect the group's extents (including its own).
	st.Aggregator = true
	extents := []extent{{off: off, data: data}}
	for i := 0; i < hi-lo-1; i++ {
		m, err := c.q.pop(AnySource, tag)
		if err != nil {
			return st, err
		}
		eoff, edata, err := unpackExtent(m.Data)
		if err != nil {
			return st, err
		}
		extents = append(extents, extent{off: eoff, data: edata})
	}
	sort.Slice(extents, func(i, j int) bool { return extents[i].off < extents[j].off })

	// Coalesce adjacent extents into single accesses.
	for i := 0; i < len(extents); {
		run := append([]byte(nil), extents[i].data...)
		start := extents[i].off
		j := i + 1
		for j < len(extents) && extents[j].off == start+int64(len(run)) {
			run = append(run, extents[j].data...)
			j++
		}
		if w == nil {
			return st, fmt.Errorf("mpi: aggregator rank %d has no writer", c.rank)
		}
		if _, err := w.WriteAt(run, start); err != nil {
			return st, fmt.Errorf("mpi: collective write at %d: %w", start, err)
		}
		st.Accesses++
		st.Bytes += int64(len(run))
		i = j
	}
	return st, c.Barrier()
}
