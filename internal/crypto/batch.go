package crypto

import "crypto/ed25519"

// BatchVerifier accumulates (public key, payload, signature) triples and
// verifies them together. The shape matches algebraic ED25519 batch
// verification (one multi-scalar check over the whole batch, bisection to
// isolate forgeries when the aggregate check fails); the standard library
// exposes no batch equation, so the default backend verifies a range by
// checking its items with early exit, and a real batch backend slots in
// behind checkFn without touching any caller.
//
// The zero value is ready to use. A BatchVerifier is not safe for
// concurrent use; pool or stack-allocate per call site.
type BatchVerifier struct {
	pubs     []ed25519.PublicKey
	payloads [][]byte
	sigs     [][]byte

	// checkFn, when set, replaces the range check — tests inject counting
	// or algebraic backends here.
	checkFn func(lo, hi int) bool
}

// Add appends one triple to the batch. The slices are retained until Reset.
func (v *BatchVerifier) Add(pub ed25519.PublicKey, payload, sig []byte) {
	v.pubs = append(v.pubs, pub)
	v.payloads = append(v.payloads, payload)
	v.sigs = append(v.sigs, sig)
}

// Len reports the number of accumulated triples.
func (v *BatchVerifier) Len() int { return len(v.pubs) }

// Reset empties the batch, retaining capacity for reuse.
func (v *BatchVerifier) Reset() {
	v.pubs = v.pubs[:0]
	v.payloads = v.payloads[:0]
	v.sigs = v.sigs[:0]
}

// Verify reports whether every accumulated triple carries a valid
// signature. On false, Failed isolates the invalid indices.
func (v *BatchVerifier) Verify() bool { return v.check(0, v.Len()) }

// Failed returns the indices (ascending) of the invalid triples by
// bisecting the batch check: a clean half is vouched for by one aggregate
// check, so k forgeries in a batch of n cost O(k log n) range checks
// instead of a full per-item sweep.
func (v *BatchVerifier) Failed() []int {
	return v.bisect(0, v.Len(), nil)
}

func (v *BatchVerifier) bisect(lo, hi int, out []int) []int {
	if lo >= hi || v.check(lo, hi) {
		return out
	}
	if hi-lo == 1 {
		return append(out, lo)
	}
	mid := lo + (hi-lo)/2
	out = v.bisect(lo, mid, out)
	return v.bisect(mid, hi, out)
}

// check verifies the half-open range [lo, hi) as a unit.
func (v *BatchVerifier) check(lo, hi int) bool {
	if v.checkFn != nil {
		return v.checkFn(lo, hi)
	}
	for i := lo; i < hi; i++ {
		if len(v.pubs[i]) != ed25519.PublicKeySize ||
			!ed25519.Verify(v.pubs[i], v.payloads[i], v.sigs[i]) {
			return false
		}
	}
	return true
}
