package ledger

import (
	"encoding/binary"
	"fmt"

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
	if n := len(buf) + 1 + blockFixedLen + 2*len(b.Proof.Signers) + b.Batch.EncodedLen(); n > cap(buf) {
		// One explicit make: slices.Grow allocates twice under -race.
		grown := make([]byte, len(buf), n)
		copy(grown, buf)
		buf = grown
	}
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
	rd := types.NewReader(buf)
	if v := rd.U8(); v != codecVersion && rd.Err() == nil {
		return nil, fmt.Errorf("ledger: unknown block encoding version %d", v)
	}
	b := &Block{Height: rd.U64(), PrevHash: rd.Digest(), StateHash: rd.Digest()}
	b.Proof = Proof{
		Instance: types.InstanceID(rd.U16()),
		Round:    types.Round(rd.U64()),
		View:     types.View(rd.U64()),
		Digest:   rd.Digest(),
	}
	if n := int(rd.U16()); n > rd.Len()/2 {
		rd.Fail(fmt.Errorf("truncated in %d signers", n))
	} else if n > 0 {
		b.Proof.Signers = make([]types.ReplicaID, n)
		for i := range b.Proof.Signers {
			b.Proof.Signers[i] = types.ReplicaID(rd.U16())
		}
	}
	b.Batch = rd.Batch()
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("ledger: block encoding: %w", err)
	}
	return b, nil
}
