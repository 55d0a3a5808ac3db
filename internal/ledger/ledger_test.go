package ledger

import (
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/types"
)

func batch(c types.ClientID, seq uint64, op string) *types.Batch {
	return &types.Batch{Txns: []types.Transaction{{Client: c, Seq: seq, Op: []byte(op)}}}
}

func TestAppendAndVerify(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(batch(1, uint64(i+1), "op"), Proof{Round: types.Round(i + 1)}, types.Hash([]byte{byte(i)}))
	}
	if l.Height() != 10 || l.TxnCount() != 10 {
		t.Fatalf("height=%d txns=%d", l.Height(), l.TxnCount())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHashChainLinks(t *testing.T) {
	l := New()
	b1 := l.Append(batch(1, 1, "a"), Proof{}, types.ZeroDigest)
	b2 := l.Append(batch(1, 2, "b"), Proof{}, types.ZeroDigest)
	if b2.PrevHash != b1.Hash() {
		t.Fatal("chain link broken on append")
	}
	if b1.PrevHash != types.ZeroDigest {
		t.Fatal("genesis prev-hash not zero")
	}
}

func TestVerifyDetectsMutation(t *testing.T) {
	l := New()
	l.Append(batch(1, 1, "a"), Proof{}, types.ZeroDigest)
	l.Append(batch(1, 2, "b"), Proof{}, types.ZeroDigest)
	// Tamper with an early block's contents.
	l.Get(0).Batch.Txns[0].Op = []byte("EVIL")
	if err := l.Verify(); err == nil {
		t.Fatal("mutation not detected")
	}
}

// TestBlockHashDefinition pins the block hash, H(height ‖ prev ‖ batch
// digest ‖ state), to a fixed value: the same whether Append takes the batch
// digest from the commit proof or recomputes it, and the same for the block
// decoded from its journal encoding.
func TestBlockHashDefinition(t *testing.T) {
	const golden = "9d209903896b381c41c1cbeb605103be304ecdaa3648c1d1dd07360fb8eb07c3"
	b := &types.Batch{Txns: []types.Transaction{
		{Client: 7, Seq: 1, Op: []byte("write k1")},
		{Client: 9, Seq: 4, Op: []byte("write k2")},
	}}
	for _, proof := range []Proof{{Round: 1}, {Round: 1, Digest: b.Digest()}} {
		l := NewAt(41, types.Hash([]byte("prev")), 0)
		blk := l.Append(b, proof, types.Hash([]byte("state")))
		h := blk.Hash()
		if got := hex.EncodeToString(h[:]); got != golden {
			t.Fatalf("proof digest %v: block hash %s, want %s", proof.Digest, got, golden)
		}
		dec, err := DecodeBlock(EncodeBlock(blk))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Hash() != h {
			t.Fatalf("proof digest %v: decoded block hashes differently", proof.Digest)
		}
	}
}

// TestAppendTakesProofDigest: given a non-zero proof digest, Append commits
// to it without hashing the batch — a 100-txn append allocates only the
// block — and so a lying digest shows in the block hash, where Verify finds
// it (TestVerifyChecksProofDigest).
func TestAppendTakesProofDigest(t *testing.T) {
	b := &types.Batch{Txns: make([]types.Transaction, 100)}
	for i := range b.Txns {
		b.Txns[i] = types.Transaction{Client: 1, Seq: uint64(i + 1), Op: []byte("write key=value")}
	}
	proof := Proof{Round: 1, Digest: b.Digest()}
	l := New()
	if allocs := testing.AllocsPerRun(100, func() { l.Append(b, proof, types.ZeroDigest) }); allocs > 1 {
		t.Fatalf("Append with a proof digest: %v allocations, want ≤ 1 (the block)", allocs)
	}
	lie := Proof{Round: 1, Digest: types.Hash([]byte("not the batch"))}
	if New().Append(b, lie, types.ZeroDigest).Hash() == New().Append(b, proof, types.ZeroDigest).Hash() {
		t.Fatal("block hash does not commit to the proof digest")
	}
}

func TestGetOutOfRange(t *testing.T) {
	l := New()
	if l.Get(0) != nil || l.Head() != nil {
		t.Fatal("empty ledger returned a block")
	}
	l.Append(batch(1, 1, "a"), Proof{}, types.ZeroDigest)
	if l.Get(1) != nil {
		t.Fatal("out-of-range height returned a block")
	}
	if l.Head() == nil || l.Head().Height != 0 {
		t.Fatal("head wrong")
	}
}

func TestProofIsStored(t *testing.T) {
	l := New()
	p := Proof{Instance: 3, Round: 7, View: 1, Signers: []types.ReplicaID{0, 2, 3}}
	b := l.Append(batch(1, 1, "a"), p, types.ZeroDigest)
	if b.Proof.Instance != 3 || b.Proof.Round != 7 || len(b.Proof.Signers) != 3 {
		t.Fatalf("proof mangled: %+v", b.Proof)
	}
}

func TestConcurrentAppendsAndReads(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Append(batch(types.ClientID(w+1), uint64(i+1), "x"), Proof{}, types.ZeroDigest)
				_ = l.Height()
				_ = l.Head()
			}
		}(w)
	}
	wg.Wait()
	if l.Height() != 200 {
		t.Fatalf("height %d, want 200", l.Height())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}
