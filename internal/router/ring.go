// Package router is the dispatcher-of-dispatchers tier: it partitions
// submitted jobs across N dispatcher instances in one process and rebalances
// queued work between them, generalizing the intra-dispatcher shard steal one
// level up. The router calls its members directly; nothing of it crosses the
// wire, and each instance's worker port serves workers only.
//
// Placement is consistent hashing on the job ID — an FNV-1a hash over a
// ring of virtual nodes, 64 per instance — with a least-loaded fallback
// when the ring owner has no idle workers. A periodic steal pass moves
// *queued* (never running) jobs from the most backlogged instance to an
// idle one; per-submitter FIFO stays observable because victims always give
// up their oldest queued work and thieves place it at the front of their
// queues. Completions route back through the router's stable per-job handle
// no matter how many times the job migrated.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerMember is the virtual-node fan-out. 64 points per member keeps
// the keyspace split within a few percent of even for small member counts
// while the ring stays tiny (N*64 points, binary-searched per placement).
const vnodesPerMember = 64

// ring is a consistent-hash ring over member indices: an FNV-1a hash of
// "name#v" positions vnodesPerMember virtual nodes per member, and a key is
// owned by the first point clockwise from its hash.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	h   uint32
	idx int
}

func newRing(names []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*vnodesPerMember)}
	for i, name := range names {
		for v := 0; v < vnodesPerMember; v++ {
			r.points = append(r.points, ringPoint{h: hash32(fmt.Sprintf("%s#%d", name, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		// Deterministic tie-break so equal hashes order the same on every
		// restart (member names, and therefore assignments, must be stable).
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// owner returns the member index owning key.
func (r *ring) owner(key string) int {
	h := hash32(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].idx
}

// hash32 is 32-bit FNV-1a with a murmur3-style
// finalizer. Raw FNV-1a has no avalanche: job IDs that differ only in a
// trailing counter ("job-0".."job-19") land in one tiny arc of the ring and
// a single member ends up owning the whole batch. The mixer spreads those
// tails across the keyspace while staying deterministic across restarts.
func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	x := h.Sum32()
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}
