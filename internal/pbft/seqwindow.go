package pbft

import "math/bits"

// windowWords bounds a client's seq window: 2^14 words of 64 seqs, so the
// live seqs of one client span at most 2^20 seqs.
const windowWords = 1 << 14

// seqWindow is the set of a client's live seqs — queued or in flight, and
// above its dedup floor — as a bitset over the 64-seq words [base,
// base+span). Word w lives at words[w&(len(words)-1)], and words outside
// the window are zero, so the window moves in either direction without
// copying until it outgrows its backing ring.
//
// Only three things change it. add sets a bit, extending the window up or
// down, and re-anchors an empty window at the new seq's word. slide drops
// every seq at or below a risen floor; delivery raises the floor past each
// delivered seq, so slide is also how delivered seqs leave. A seq whose
// word would widen the window past windowWords is refused.
type seqWindow struct {
	base  uint64   // first word (seq/64) of the window
	span  uint64   // words in the window; 0 when no seq is live
	words []uint64 // power-of-two ring
	n     int      // live seqs (set bits)
}

// has reports whether seq is live.
func (x *seqWindow) has(seq uint64) bool {
	w := seq >> 6
	return w-x.base < x.span && x.words[w&uint64(len(x.words)-1)]&(1<<(seq&63)) != 0
}

// add makes seq live; the caller has checked that it is above the floor and
// not live. It reports false, leaving the window as it was, when seq's word
// lies windowWords or more from the window's far end.
func (x *seqWindow) add(seq uint64) bool {
	w := seq >> 6
	switch {
	case x.span == 0:
		x.grow(1)
		x.base, x.span = w, 1
	case w < x.base:
		span := x.base + x.span - w
		if span > windowWords {
			return false
		}
		x.grow(span)
		x.base, x.span = w, span
	case w-x.base >= x.span:
		span := w - x.base + 1
		if span > windowWords {
			return false
		}
		x.grow(span)
		x.span = span
	}
	x.words[w&uint64(len(x.words)-1)] |= 1 << (seq & 63)
	x.n++
	return true
}

// grow makes the ring hold at least span words, keeping the window's words
// in place.
func (x *seqWindow) grow(span uint64) {
	if span <= uint64(len(x.words)) {
		return
	}
	size := max(4, 1<<bits.Len64(span-1))
	words := make([]uint64, size)
	for w := x.base; w < x.base+x.span; w++ {
		words[w&uint64(size-1)] = x.words[w&uint64(len(x.words)-1)]
	}
	x.words = words
}

// slide drops every seq at or below floor.
func (x *seqWindow) slide(floor uint64) {
	if x.span == 0 {
		return
	}
	mask := uint64(len(x.words) - 1)
	next := floor + 1 // the first seq that can still be live
	if next == 0 || next>>6 >= x.base+x.span {
		for w := x.base; w < x.base+x.span; w++ {
			x.words[w&mask] = 0
		}
		x.span, x.n = 0, 0
		return
	}
	for ; x.base < next>>6; x.base, x.span = x.base+1, x.span-1 {
		x.n -= bits.OnesCount64(x.words[x.base&mask])
		x.words[x.base&mask] = 0
	}
	if x.base == next>>6 {
		below := uint64(1)<<(next&63) - 1
		x.n -= bits.OnesCount64(x.words[x.base&mask] & below)
		x.words[x.base&mask] &^= below
	}
	if x.n == 0 {
		x.span = 0 // every word of the window is zero
	}
}
