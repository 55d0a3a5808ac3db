package pbft

import (
	"math/bits"

	"repro/internal/types"
)

// replicaSet is a set of replica IDs as a bitset. IDs below 64 live in the
// inline word, so a cluster of up to 64 replicas never allocates for it;
// larger clusters size the rest from n on first use.
type replicaSet struct {
	lo uint64
	hi []uint64 // IDs 64 and up
}

// add inserts r and reports whether it was new. n is the cluster size.
func (s *replicaSet) add(r types.ReplicaID, n int) bool {
	word, bit := &s.lo, uint64(1)<<(r&63)
	if r >= 64 {
		i := int(r)/64 - 1
		if i >= len(s.hi) {
			hi := make([]uint64, max(i+1, (n-1)/64))
			copy(hi, s.hi)
			s.hi = hi
		}
		word = &s.hi[i]
	}
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// appendTo appends the set's members to out in ascending ID order.
func (s *replicaSet) appendTo(out []types.ReplicaID) []types.ReplicaID {
	out = appendBits(out, 0, s.lo)
	for i, w := range s.hi {
		out = appendBits(out, 64*(i+1), w)
	}
	return out
}

// appendBits appends first+i for every bit i set in w, in ascending order.
func appendBits(out []types.ReplicaID, first int, w uint64) []types.ReplicaID {
	for ; w != 0; w &= w - 1 {
		out = append(out, types.ReplicaID(first+bits.TrailingZeros64(w)))
	}
	return out
}

// digestVotes is one digest's voters and their count.
type digestVotes struct {
	d   types.Digest
	who replicaSet
	n   int
}

// tally counts one kind of vote (PREPARE, COMMIT or CHECKPOINT) for one
// round: per digest, the distinct replicas that voted for it. A correct
// round sees one digest, which is held inline, so its votes allocate
// nothing; a replica voting for several digests counts once for each.
type tally struct {
	first digestVotes
	more  []digestVotes // further digests, seen only under a faulty primary
}

// find returns d's entry, or nil when nobody voted for d.
func (t *tally) find(d types.Digest) *digestVotes {
	if t.first.n > 0 && t.first.d == d {
		return &t.first
	}
	for i := range t.more {
		if t.more[i].d == d {
			return &t.more[i]
		}
	}
	return nil
}

// add records r's vote for d and returns how many distinct replicas voted
// for d. n is the cluster size.
func (t *tally) add(d types.Digest, r types.ReplicaID, n int) int {
	e := t.find(d)
	switch {
	case e != nil:
	case t.first.n == 0:
		e = &t.first
		e.d = d
	default:
		t.more = append(t.more, digestVotes{d: d})
		e = &t.more[len(t.more)-1]
	}
	if e.who.add(r, n) {
		e.n++
	}
	return e.n
}

// voters returns the replicas that voted for d in ascending ID order.
func (t *tally) voters(d types.Digest) []types.ReplicaID {
	e := t.find(d)
	if e == nil {
		return []types.ReplicaID{}
	}
	return e.who.appendTo(make([]types.ReplicaID, 0, e.n))
}
