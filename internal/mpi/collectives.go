package mpi

import "fmt"

// Collectives are implemented over point-to-point messages in a reserved
// (negative) tag space. All ranks of a communicator must call each collective
// in the same order, as in MPI.
//
// Every collective in this file walks one binomial tree: parts and partial
// results go up it (treeGather) and payloads come down it (treeRelease). A child sends to
// its parent first, so over TCP the child dials, and a job whose collectives
// are all rooted at rank 0 opens size-1 rank-pair connections however many of
// them it calls.

// treePos places this rank in the binomial tree rooted at root. rel is its
// rank relative to root and span the lowest set bit of rel (at the root, the
// first power of two >= size): the parent is rel-span and the children are
// rel+m for every power of two m < span with rel+m < size.
func (c *Comm) treePos(root int) (rel, span int) {
	rel = (c.rank - root + c.size) % c.size
	span = 1
	for span < c.size && rel&span == 0 {
		span <<= 1
	}
	return rel, span
}

// treeGather is the upward half of a tree collective: one message from each
// child, nearest first, handed to merge, then own() to the parent. Either
// function may be nil when the messages carry nothing.
func (c *Comm) treeGather(root, tag int, merge func([]byte) error, own func() []byte) error {
	rel, span := c.treePos(root)
	for m := 1; m < span && rel+m < c.size; m <<= 1 {
		msg, err := c.q.pop((rel+m+root)%c.size, tag)
		if err != nil {
			return err
		}
		if merge != nil {
			if err := merge(msg.Data); err != nil {
				return err
			}
		}
	}
	if rel == 0 {
		return nil
	}
	var data []byte
	if own != nil {
		data = own()
	}
	return c.tr.send((rel-span+root)%c.size, tag, data)
}

// treeRelease is the downward half: every rank but the root takes data from
// its parent, and all forward it to their children, farthest first.
func (c *Comm) treeRelease(root, tag int, data []byte) ([]byte, error) {
	rel, span := c.treePos(root)
	if rel != 0 {
		m, err := c.q.pop((rel-span+root)%c.size, tag)
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	for m := span >> 1; m > 0; m >>= 1 {
		if rel+m < c.size {
			if err := c.tr.send((rel+m+root)%c.size, tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Barrier blocks until every rank has entered it: an empty gather up the
// binomial tree rooted at rank 0, then a release down it. A child sends
// first, so over TCP it is the child that dials and the parent replies on the
// connection it accepted.
func (c *Comm) Barrier() error {
	base := c.nextCollTag()
	if c.size == 1 {
		return nil
	}
	if err := c.treeGather(0, base, nil, nil); err != nil {
		return err
	}
	_, err := c.treeRelease(0, base-1, nil)
	return err
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received (or original, on root) payload.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: bcast invalid root %d", root)
	}
	return c.treeRelease(root, c.nextCollTag(), data)
}

// Gather collects each rank's data at root. Root receives a slice indexed by
// rank; other ranks receive nil. The parts go up the tree rooted at root: the
// ranks below any rank are consecutive relative to root, its own first and
// then each child's, nearest child first, so the root ends up holding every
// part in relative order and rotates them into rank order.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: gather invalid root %d", root)
	}
	rel, _ := c.treePos(root)
	parts := [][]byte{append([]byte(nil), data...)}
	err := c.treeGather(root, c.nextCollTag(), func(b []byte) error {
		// parts holds ranks rel .. rel+len(parts)-1 (relative to root); the
		// child at rel+len(parts) sends as many, fewer where the job ends.
		sub, err := unpackParts(b, min(len(parts), c.size-rel-len(parts)))
		parts = append(parts, sub...)
		return err
	}, func() []byte { return packParts(parts) })
	if err != nil || rel != 0 {
		return nil, err
	}
	out := make([][]byte, c.size)
	for i, p := range parts {
		out[(i+root)%c.size] = p
	}
	return out, nil
}

// Allgather collects each rank's data at every rank: a Gather up the tree
// rooted at rank 0 and a Bcast of the packed parts back down it.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var blob []byte
	if c.rank == 0 {
		blob = packParts(parts)
	}
	blob, err = c.Bcast(0, blob)
	if err != nil {
		return nil, err
	}
	return unpackParts(blob, c.size)
}

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

func reduceFloat64(op Op, acc, in []float64) error {
	if len(acc) != len(in) {
		return fmt.Errorf("mpi: reduce length mismatch %d vs %d", len(acc), len(in))
	}
	switch op {
	case OpSum:
		for i := range acc {
			acc[i] += in[i]
		}
	case OpMax:
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	case OpMin:
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	case OpProd:
		for i := range acc {
			acc[i] *= in[i]
		}
	default:
		return fmt.Errorf("mpi: unknown op %v", op)
	}
	return nil
}

func reduceInt64(op Op, acc, in []int64) error {
	if len(acc) != len(in) {
		return fmt.Errorf("mpi: reduce length mismatch %d vs %d", len(acc), len(in))
	}
	switch op {
	case OpSum:
		for i := range acc {
			acc[i] += in[i]
		}
	case OpMax:
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	case OpMin:
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	case OpProd:
		for i := range acc {
			acc[i] *= in[i]
		}
	default:
		return fmt.Errorf("mpi: unknown op %v", op)
	}
	return nil
}

// ReduceFloat64 combines in element-wise across ranks with op, delivering
// the result at root (other ranks get nil). Binomial-tree reduction.
func (c *Comm) ReduceFloat64(root int, op Op, in []float64) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: reduce invalid root %d", root)
	}
	acc := append([]float64(nil), in...)
	err := c.treeGather(root, c.nextCollTag(), func(b []byte) error {
		other, err := BytesToFloat64s(b)
		if err != nil {
			return err
		}
		return reduceFloat64(op, acc, other)
	}, func() []byte { return Float64sToBytes(acc) })
	if err != nil || c.rank != root {
		return nil, err
	}
	return acc, nil
}

// AllreduceFloat64 is ReduceFloat64 to rank 0 followed by a broadcast; every
// rank receives the combined result.
func (c *Comm) AllreduceFloat64(op Op, in []float64) ([]float64, error) {
	acc, err := c.ReduceFloat64(0, op, in)
	if err != nil {
		return nil, err
	}
	var blob []byte
	if c.rank == 0 {
		blob = Float64sToBytes(acc)
	}
	blob, err = c.Bcast(0, blob)
	if err != nil {
		return nil, err
	}
	return BytesToFloat64s(blob)
}

// ReduceInt64 is the int64 variant of ReduceFloat64.
func (c *Comm) ReduceInt64(root int, op Op, in []int64) ([]int64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: reduce invalid root %d", root)
	}
	acc := append([]int64(nil), in...)
	err := c.treeGather(root, c.nextCollTag(), func(b []byte) error {
		other, err := BytesToInt64s(b)
		if err != nil {
			return err
		}
		return reduceInt64(op, acc, other)
	}, func() []byte { return Int64sToBytes(acc) })
	if err != nil || c.rank != root {
		return nil, err
	}
	return acc, nil
}

// AllreduceInt64 is the int64 variant of AllreduceFloat64.
func (c *Comm) AllreduceInt64(op Op, in []int64) ([]int64, error) {
	acc, err := c.ReduceInt64(0, op, in)
	if err != nil {
		return nil, err
	}
	var blob []byte
	if c.rank == 0 {
		blob = Int64sToBytes(acc)
	}
	blob, err = c.Bcast(0, blob)
	if err != nil {
		return nil, err
	}
	return BytesToInt64s(blob)
}
