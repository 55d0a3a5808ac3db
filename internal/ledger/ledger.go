// Package ledger implements the ResilientDB-style blockchain journal: an
// append-only, hash-chained sequence of blocks, each holding the executed
// transactions of one consensus decision together with the commit proof
// (§V-B: "each replica maintains a blockchain ledger that holds an ordered
// copy of all executed transactions ... also proofs of their acceptance").
// Each block hash commits to the batch digest consensus decided on, taken
// from the commit proof at append time without re-hashing the batch; Verify
// recomputes every batch digest and refuses a chain where the two differ.
//
// The ledger keeps every block's header in memory: height, hash links,
// state hash, proof, hash and transaction count. It keeps a block's batch,
// its body, only until Release. A durable store (internal/store) releases a
// body once the block's write-ahead-log record is on disk, and installs a
// loader through which Get, Head and Verify read released bodies back from
// that record. Height, Tip, HeadHash, TxnCount and Base read headers only.
// A ledger without a loader, the in-memory default, never releases.
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
	txns      int // Batch.Len(), kept in the header once the ledger releases Batch
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

// Ledger is an in-memory hash-chained journal of block headers, holding
// each block's body until Release (see the package doc). It is safe for
// concurrent use.
//
// A ledger normally starts at height 0 (genesis). A ledger built from a
// state transfer, or rebased after its journal was pruned, instead starts at
// a base height: blocks below the base were summarized by a snapshot and are
// not materialized — Get returns nil for them — but heights, hash links, and
// the cumulative transaction count continue as if they were present (NewAt,
// Rebase).
type Ledger struct {
	mu       sync.RWMutex
	base     uint64       // height of the first materialized block
	baseHash types.Digest // hash of block base-1 (zero when base == 0)
	baseTxns uint64       // transactions carried by blocks below base
	blocks   []*Block     // one header per block; Batch is nil once released
	txns     uint64
	load     func(height uint64) (*Block, error) // reads a released body back
	slab     []Block                             // spare headers Release fills
}

// headerSlab is how many headers Release allocates at a time. Release runs
// once per block on the journal's completion path; carving its headers from
// a slab keeps it allocation-free there.
const headerSlab = 64

// New creates an empty ledger rooted at genesis.
func New() *Ledger { return &Ledger{} }

// NewAt creates a ledger whose first block will sit at height base, chained
// onto baseHash (the hash of block base-1), with baseTxns transactions
// carried by the summarized prefix. NewAt(0, zero, 0) equals New().
func NewAt(base uint64, baseHash types.Digest, baseTxns uint64) *Ledger {
	return &Ledger{base: base, baseHash: baseHash, baseTxns: baseTxns}
}

// SetLoader installs the function through which Get, Head and Verify read a
// released block back: it returns the block at height as it was journaled.
// Every loaded block is checked against the header the ledger kept; one
// that does not hash to it is treated as unreadable. Install the loader
// before the first Release.
func (l *Ledger) SetLoader(load func(height uint64) (*Block, error)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.load = load
}

// Release drops the body of the block at height from memory; its header
// stays. Later reads of the block go through the loader. Without a loader,
// or for a height out of range or already released, it does nothing.
func (l *Ledger) Release(height uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.load == nil || height < l.base || height >= l.base+uint64(len(l.blocks)) {
		return
	}
	i := height - l.base
	if b := l.blocks[i]; b.Batch != nil {
		// Replace the block rather than clear its field: callers may still
		// hold and read the block Append or Get returned.
		if len(l.slab) == 0 {
			l.slab = make([]Block, headerSlab)
		}
		hdr := &l.slab[0]
		l.slab = l.slab[1:]
		*hdr = *b
		hdr.Batch = nil
		l.blocks[i] = hdr
	}
}

// Retained returns how many blocks have their body held in memory.
func (l *Ledger) Retained() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, b := range l.blocks {
		if b.Batch != nil {
			n++
		}
	}
	return n
}

// Rebase drops every block below height: the ledger then starts at height,
// chained onto the hash of block height-1, with the dropped blocks'
// transactions carried in the summarized prefix — the shape NewAt gives a
// ledger built by state transfer. Get returns nil below the new base. A
// height outside (Base, Height] is ignored.
func (l *Ledger) Rebase(height uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if height <= l.base || height > l.base+uint64(len(l.blocks)) {
		return
	}
	k := height - l.base
	var txns uint64
	for _, b := range l.blocks[:k] {
		txns += uint64(b.txns)
	}
	l.baseHash = l.blocks[k-1].Hash()
	l.base, l.baseTxns, l.txns = height, l.baseTxns+txns, l.txns-txns
	l.blocks = append([]*Block(nil), l.blocks[k:]...)
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
		txns:      batch.Len(),
	}
	b.hash = blockHash(b.Height, prev, digest, state)
	l.blocks = append(l.blocks, b)
	l.txns += uint64(b.txns)
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

// Get returns the block at the given height, or nil when out of range,
// below the base (summarized by a snapshot, no longer materialized), or
// released and unreadable (its journal record is gone or damaged). A
// retained block is returned as held; a released one is read back through
// the loader into a new Block on every call.
func (l *Ledger) Get(height uint64) *Block {
	l.mu.RLock()
	if height < l.base || height >= l.base+uint64(len(l.blocks)) {
		l.mu.RUnlock()
		return nil
	}
	return l.readUnlock(l.blocks[height-l.base])
}

// readUnlock releases the read lock the caller holds, then returns hdr's
// block with its body, or nil when the body cannot be read back.
func (l *Ledger) readUnlock(hdr *Block) *Block {
	load := l.load
	l.mu.RUnlock()
	b, _, err := materialize(hdr, load)
	if err != nil {
		return nil
	}
	return b
}

// materialize returns hdr's block with its body: hdr itself while the
// ledger retains the batch, otherwise a copy of hdr carrying the batch load
// reads back, once that batch is checked to hash to hdr. digest is the
// batch digest when materialize computed it, zero otherwise. Runs outside
// the lock: a header is never modified once published (Release replaces
// it).
func materialize(hdr *Block, load func(uint64) (*Block, error)) (b *Block, digest types.Digest, err error) {
	if hdr.Batch != nil {
		return hdr, types.Digest{}, nil
	}
	got, err := load(hdr.Height)
	if err != nil {
		return nil, types.Digest{}, err
	}
	digest = got.Batch.Digest()
	if blockHash(got.Height, got.PrevHash, digest, got.StateHash) != hdr.hash {
		return nil, types.Digest{}, fmt.Errorf("journaled block does not match its header")
	}
	b = &Block{}
	*b = *hdr
	b.Batch = got.Batch
	return b, digest, nil
}

// HeadHash returns the hash of the chain head: the last materialized
// block's hash, or the base hash when every block is summarized by an
// installed snapshot (the zero digest on a truly empty chain).
func (l *Ledger) HeadHash() types.Digest {
	_, h := l.Tip()
	return h
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

// Head returns the latest block (as Get returns it), or nil when the
// ledger is empty.
func (l *Ledger) Head() *Block {
	l.mu.RLock()
	if len(l.blocks) == 0 {
		l.mu.RUnlock()
		return nil
	}
	return l.readUnlock(l.blocks[len(l.blocks)-1])
}

// Verify walks the chain and checks every hash link, and that every block's
// commit proof actually covers its batch: a non-zero Proof.Digest must equal
// the recomputed batch digest, otherwise the proof certifies some other
// proposal and the journal's provenance claim is void. (A zero Proof.Digest
// marks an unproven block — tests and replayed genesis state — and is
// exempt.) Released bodies are read back through the loader, so a journal
// record that no longer reads back is an error naming its height. It
// returns an error describing the first broken link, or nil when the chain
// is intact. The ledger is immutable-by-convention; Verify is how tests,
// auditors, and the benchmark check the provenance property.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	base, prev, load := l.base, l.baseHash, l.load
	hdrs := append([]*Block(nil), l.blocks...)
	l.mu.RUnlock()
	for i, hdr := range hdrs {
		h := base + uint64(i)
		if hdr.Height != h {
			return fmt.Errorf("ledger: block %d has height %d", h, hdr.Height)
		}
		if hdr.PrevHash != prev {
			return fmt.Errorf("ledger: block %d prev-hash mismatch", h)
		}
		b, digest, err := materialize(hdr, load)
		if err != nil {
			return fmt.Errorf("ledger: block %d: %w", h, err)
		}
		if digest.IsZero() {
			digest = b.Batch.Digest()
		}
		if !b.Proof.Digest.IsZero() && b.Proof.Digest != digest {
			return fmt.Errorf("ledger: block %d proof digest does not cover its batch", h)
		}
		// Recompute the hash from scratch to catch mutation.
		if blockHash(b.Height, b.PrevHash, digest, b.StateHash) != hdr.Hash() {
			return fmt.Errorf("ledger: block %d content mutated", h)
		}
		prev = hdr.Hash()
	}
	return nil
}
