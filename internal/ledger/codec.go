package ledger

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/types"
)

// Wire encoding of one block, used by the durable storage subsystem
// (internal/store) to journal blocks through the write-ahead log. The
// encoding is deterministic and self-contained: height, hash links, proof,
// and batch — everything needed to rebuild the in-memory chain and re-audit
// it with Verify after a restart.

const codecVersion = 1

// blockFixedLen is the size of the encoding's fixed fields after the
// version byte: height, prev and state hashes, proof instance, round, view
// and digest, and the signer count.
const blockFixedLen = 8 + 32 + 32 + 2 + 8 + 8 + 32 + 2

// EncodeBlock returns the wire encoding of b in one allocation sized to it.
// The state-transfer paths call it; the journal appends into a reused
// buffer through AppendBlock instead.
func EncodeBlock(b *Block) []byte { return AppendBlock(nil, b) }

// AppendBlock appends the wire encoding of b to buf, growing buf at most
// once, to the encoding's exact size.
func AppendBlock(buf []byte, b *Block) []byte {
	buf = slices.Grow(buf, 1+blockFixedLen+2*len(b.Proof.Signers)+b.Batch.EncodedLen())
	buf = append(buf, codecVersion)
	buf = binary.BigEndian.AppendUint64(buf, b.Height)
	buf = append(buf, b.PrevHash[:]...)
	buf = append(buf, b.StateHash[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(b.Proof.Instance))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Proof.Round))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Proof.View))
	buf = append(buf, b.Proof.Digest[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b.Proof.Signers)))
	for _, s := range b.Proof.Signers {
		buf = binary.BigEndian.AppendUint16(buf, uint16(s))
	}
	return b.Batch.Marshal(buf)
}

// DecodeBlock parses the wire encoding produced by EncodeBlock.
func DecodeBlock(buf []byte) (*Block, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("ledger: empty block encoding")
	}
	if buf[0] != codecVersion {
		return nil, fmt.Errorf("ledger: unknown block encoding version %d", buf[0])
	}
	buf = buf[1:]
	if len(buf) < blockFixedLen {
		return nil, fmt.Errorf("ledger: short block encoding: %d bytes", len(buf))
	}
	b := &Block{}
	b.Height = binary.BigEndian.Uint64(buf)
	buf = buf[8:]
	copy(b.PrevHash[:], buf)
	buf = buf[32:]
	copy(b.StateHash[:], buf)
	buf = buf[32:]
	b.Proof.Instance = types.InstanceID(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	b.Proof.Round = types.Round(binary.BigEndian.Uint64(buf))
	buf = buf[8:]
	b.Proof.View = types.View(binary.BigEndian.Uint64(buf))
	buf = buf[8:]
	copy(b.Proof.Digest[:], buf)
	buf = buf[32:]
	nsign := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < nsign*2 {
		return nil, fmt.Errorf("ledger: block encoding truncated in signers")
	}
	if nsign > 0 {
		b.Proof.Signers = make([]types.ReplicaID, nsign)
		for i := range b.Proof.Signers {
			b.Proof.Signers[i] = types.ReplicaID(binary.BigEndian.Uint16(buf))
			buf = buf[2:]
		}
	}
	batch, rest, err := types.UnmarshalBatch(buf)
	if err != nil {
		return nil, fmt.Errorf("ledger: block encoding: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ledger: %d trailing bytes after block encoding", len(rest))
	}
	b.Batch = batch
	return b, nil
}
