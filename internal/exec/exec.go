// Package exec defines the deterministic application contract replicas
// execute against after consensus. Transactions must be deterministic: on
// identical inputs, execution must always produce identical outcomes
// (§III-A), which is what lets nf matching client replies prove
// correctness.
//
// Apply is the paper's in-order executor (§III; Fig. 7 left prices it at
// 217 ktxn/s per replica): each unified round's batch executes one
// transaction at a time, in batch order, on the calling goroutine. A
// batch's ResultHash, what f+1 replicas must agree on before a client
// accepts a reply, is one SHA-256 over every result in batch order, each as
// a u32 big-endian length and its bytes (wire v8).
package exec

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/types"
)

// Application is a deterministic state machine. Apply calls Execute for
// one transaction at a time, in batch order.
type Application interface {
	// Execute applies tx and returns its result bytes. The result is
	// read-only to the caller, so an application may return one shared
	// slice for many transactions (ycsb does for writes and rejections).
	Execute(tx types.Transaction) []byte
	// StateDigest returns a digest of the current application state.
	StateDigest() types.Digest
}

// Apply executes txns against app in order and returns their ResultHash
// (see the package doc). The hash depends only on txns and their results,
// not on what app executed before: the application's StateDigest is what
// commits to history. Results reach the hash in chunks of a fixed stack
// buffer, so a short result pays no Write call of its own; a result too
// large for the buffer is written directly.
func Apply(app Application, txns []types.Transaction) types.Digest {
	h := sha256.New()
	var buf [1024]byte
	chunk := buf[:0]
	for _, tx := range txns {
		r := app.Execute(tx)
		if len(chunk)+4+len(r) > cap(chunk) {
			h.Write(chunk)
			chunk = chunk[:0]
		}
		chunk = binary.BigEndian.AppendUint32(chunk, uint32(len(r)))
		if len(r) <= cap(chunk)-len(chunk) {
			chunk = append(chunk, r...)
			continue
		}
		h.Write(chunk)
		h.Write(r)
		chunk = chunk[:0]
	}
	h.Write(chunk)
	var resultHash types.Digest
	h.Sum(resultHash[:0])
	return resultHash
}
