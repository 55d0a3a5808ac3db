// Package ledger implements the ResilientDB-style blockchain journal: an
// append-only, hash-chained sequence of blocks, each holding the executed
// transactions of one consensus decision together with the commit proof
// (§V-B: "each replica maintains a blockchain ledger that holds an ordered
// copy of all executed transactions ... also proofs of their acceptance").
// Each block hash commits to the batch digest consensus decided on, taken
// from the commit proof at append time without re-hashing the batch; Verify
// recomputes every batch digest and refuses a chain where the two differ.
package ledger

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/types"
)

// Proof records why a block is final: the instance/round/view it was decided
// in and the replicas whose votes (or shares) formed the commit certificate.
type Proof struct {
	Instance types.InstanceID
	Round    types.Round
	View     types.View
	Digest   types.Digest
	Signers  []types.ReplicaID
}

// Block is one entry of the journal.
type Block struct {
	Height    uint64
	PrevHash  types.Digest
	Batch     *types.Batch
	Proof     Proof
	StateHash types.Digest // execution-state digest after applying Batch
	hash      types.Digest
}

// Hash returns the block's hash, computed over height, previous hash, batch
// digest, and state hash. A block built by Ledger.Append carries it from
// birth; a decoded block computes it here from its batch.
func (b *Block) Hash() types.Digest {
	if b.hash.IsZero() {
		b.hash = blockHash(b.Height, b.PrevHash, b.Batch.Digest(), b.StateHash)
	}
	return b.hash
}

// blockHash is the block-hash definition: H(height ‖ prev ‖ batch ‖ state).
func blockHash(height uint64, prev, batch, state types.Digest) types.Digest {
	var buf [8 + 32*3]byte
	binary.BigEndian.PutUint64(buf[:], height)
	copy(buf[8:], prev[:])
	copy(buf[40:], batch[:])
	copy(buf[72:], state[:])
	return types.Hash(buf[:])
}

// Ledger is an in-memory hash-chained journal. It is safe for concurrent
// use.
//
// A ledger normally starts at height 0 (genesis). A ledger built from a
// state transfer instead starts at a base height: blocks below the base were
// summarized by an installed snapshot and are not materialized — Get returns
// nil for them — but heights, hash links, and the cumulative transaction
// count continue as if they were present (NewAt).
type Ledger struct {
	mu       sync.RWMutex
	base     uint64       // height of the first materialized block
	baseHash types.Digest // hash of block base-1 (zero when base == 0)
	baseTxns uint64       // transactions carried by blocks below base
	blocks   []*Block
	txns     uint64
}

// New creates an empty ledger rooted at genesis.
func New() *Ledger { return &Ledger{} }

// NewAt creates a ledger whose first block will sit at height base, chained
// onto baseHash (the hash of block base-1), with baseTxns transactions
// carried by the summarized prefix. NewAt(0, zero, 0) equals New().
func NewAt(base uint64, baseHash types.Digest, baseTxns uint64) *Ledger {
	return &Ledger{base: base, baseHash: baseHash, baseTxns: baseTxns}
}

// Base returns the height of the first materialized block (0 for a full
// chain).
func (l *Ledger) Base() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// BaseHash returns the hash the first materialized block chains onto (the
// zero digest for a full chain).
func (l *Ledger) BaseHash() types.Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.baseHash
}

// Append adds a block holding batch with the given proof and state hash.
// It returns the appended block.
//
// A non-zero proof.Digest is taken as the batch digest without re-hashing
// the batch: it is the digest consensus already checked the batch against
// (or computed when proposing it). A proof whose digest lies therefore
// yields a block hash that Verify, which recomputes every batch digest,
// refuses.
func (l *Ledger) Append(batch *types.Batch, proof Proof, state types.Digest) *Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.baseHash
	if n := len(l.blocks); n > 0 {
		prev = l.blocks[n-1].Hash()
	}
	digest := proof.Digest
	if digest.IsZero() {
		digest = batch.Digest()
	}
	b := &Block{
		Height:    l.base + uint64(len(l.blocks)),
		PrevHash:  prev,
		Batch:     batch,
		Proof:     proof,
		StateHash: state,
	}
	b.hash = blockHash(b.Height, prev, digest, state)
	l.blocks = append(l.blocks, b)
	l.txns += uint64(batch.Len())
	return b
}

// Height returns the number of blocks in the chain, including the
// summarized prefix below the base.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + uint64(len(l.blocks))
}

// TxnCount returns the total number of transactions across the chain,
// including the summarized prefix below the base.
func (l *Ledger) TxnCount() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.baseTxns + l.txns
}

// Get returns the block at the given height, or nil when out of range or
// below the base (summarized by a snapshot, no longer materialized).
func (l *Ledger) Get(height uint64) *Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height < l.base || height >= l.base+uint64(len(l.blocks)) {
		return nil
	}
	return l.blocks[height-l.base]
}

// HeadHash returns the hash of the chain head: the last materialized
// block's hash, or the base hash when every block is summarized by an
// installed snapshot (the zero digest on a truly empty chain).
func (l *Ledger) HeadHash() types.Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n := len(l.blocks); n > 0 {
		return l.blocks[n-1].Hash()
	}
	return l.baseHash
}

// Tip returns the chain height and head hash as one consistent pair (two
// separate Height/HeadHash calls could straddle an append).
func (l *Ledger) Tip() (uint64, types.Digest) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n := len(l.blocks); n > 0 {
		return l.base + uint64(n), l.blocks[n-1].Hash()
	}
	return l.base, l.baseHash
}

// Head returns the latest block, or nil when the ledger is empty.
func (l *Ledger) Head() *Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.blocks) == 0 {
		return nil
	}
	return l.blocks[len(l.blocks)-1]
}

// Verify walks the chain and checks every hash link, and that every block's
// commit proof actually covers its batch: a non-zero Proof.Digest must equal
// the recomputed batch digest, otherwise the proof certifies some other
// proposal and the journal's provenance claim is void. (A zero Proof.Digest
// marks an unproven block — tests and replayed genesis state — and is
// exempt.) It returns an error describing the first broken link, or nil when
// the chain is intact. The ledger is immutable-by-convention; Verify is how
// tests, auditors, and restart recovery (store.DurableLedger) check the
// provenance property.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := l.baseHash
	for i, b := range l.blocks {
		if b.Height != l.base+uint64(i) {
			return fmt.Errorf("ledger: block %d has height %d", i, b.Height)
		}
		if b.PrevHash != prev {
			return fmt.Errorf("ledger: block %d prev-hash mismatch", i)
		}
		digest := b.Batch.Digest()
		if !b.Proof.Digest.IsZero() && b.Proof.Digest != digest {
			return fmt.Errorf("ledger: block %d proof digest does not cover its batch", i)
		}
		// Recompute the hash from scratch to catch mutation.
		if blockHash(b.Height, b.PrevHash, digest, b.StateHash) != b.Hash() {
			return fmt.Errorf("ledger: block %d content mutated", i)
		}
		prev = b.Hash()
	}
	return nil
}
