// Package rcc implements the paper's primary contribution: the RCC
// (Resilient Concurrent Consensus) paradigm, which turns any primary-backup
// Byzantine commit algorithm into a concurrent consensus protocol by
// running m instances concurrently (§III), recovering failed instances
// wait-free (§III-C, Fig. 4), running dynamic per-need checkpoints against
// in-the-dark attacks (§III-D), managing client-to-instance assignment
// (§III-E), and executing each round's transactions in a deterministic but
// unpredictable permutation to mitigate ordering attacks (§IV). This
// package builds RCC-P: every instance is a PBFT instance.
package rcc

import (
	"math/big"

	"repro/internal/types"
)

// This file implements §IV's deterministic order-selection: the bijection
//
//	f_S : {0, ..., |S|!−1} → P(S)
//	f_S(i) = S                     if |S| = 1
//	f_S(i) = f_{S∖S[q]}(r) ⊕ S[q]  if |S| > 1
//
// with q = i div (|S|−1)! and r = i mod (|S|−1)!, where ⊕ appends S[q] at
// the end (Lemma IV.2 proves f_S is a bijection). Replicas uniformly pick
// h = digest(S) mod (k!−1): with at least one non-malicious primary (m > f)
// the value is only known after the round completes and cannot be
// predictably influenced.
//
// Factorials overflow uint64 beyond 20 elements and RCC runs with up to
// m = 91 instances, so the arithmetic uses math/big.

// factorial returns n! as a big.Int.
func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// PermutationIndices maps h ∈ {0, ..., k!−1} to the permutation f_S(h),
// returned as positions: out[p] is the index of S executed at position p.
// It panics when h is out of range (callers reduce h modulo k!−1 first).
func PermutationIndices(k int, h *big.Int) []int {
	if k <= 0 {
		return nil
	}
	if h.Sign() < 0 || h.Cmp(factorial(k)) >= 0 {
		panic("rcc: permutation index out of range")
	}
	avail := make([]int, k)
	for i := range avail {
		avail[i] = i
	}
	out := make([]int, k)
	rem := new(big.Int).Set(h)
	q := new(big.Int)
	for size := k; size >= 1; size-- {
		fact := factorial(size - 1)
		q.DivMod(rem, fact, rem)
		qi := int(q.Int64()) // q < size because rem < size!
		// f_S appends S[q] at the END of the recursive permutation,
		// so the element chosen at this level executes last among the
		// remaining positions.
		out[size-1] = avail[qi]
		avail = append(avail[:qi], avail[qi+1:]...)
	}
	return out
}

// OrderSeed computes h = digest(S) mod (k!−1) for the sequence of per-round
// decisions S, where digest(S) hashes the per-instance proposal digests in
// increasing instance order.
func OrderSeed(digests []types.Digest) *big.Int {
	k := len(digests)
	if k <= 1 {
		return big.NewInt(0)
	}
	buf := make([]byte, 0, 32*k)
	for i := range digests {
		buf = append(buf, digests[i][:]...)
	}
	d := types.Hash(buf)
	mod := new(big.Int).Sub(factorial(k), big.NewInt(1)) // k! − 1, as the paper specifies
	h := new(big.Int).SetBytes(d[:])
	return h.Mod(h, mod)
}

// ExecutionOrder returns the execution positions for one RCC round: given
// the per-instance proposal digests (increasing instance order), it returns
// a slice ord where ord[p] is the instance-slot executed at position p.
//
// When unpredictable is false, the identity order is returned (the basic
// scheme of §III-B where ⟨T_i⟩ is executed i-th).
func ExecutionOrder(digests []types.Digest, unpredictable bool) []int {
	k := len(digests)
	out := make([]int, k)
	if !unpredictable || k <= 1 {
		for i := range out {
			out[i] = i
		}
		return out
	}
	return PermutationIndices(k, OrderSeed(digests))
}
