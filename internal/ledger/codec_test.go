package ledger

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

func TestBlockCodecRoundTrip(t *testing.T) {
	l := New()
	writes := &types.Batch{Txns: []types.Transaction{
		{Client: 7, Seq: 1, Op: []byte("write k1")},
		{Client: 9, Seq: 4, Op: []byte("write k2")},
	}}
	b := l.Append(writes,
		Proof{Instance: 2, Round: 11, View: 1, Digest: writes.Digest(), Signers: []types.ReplicaID{0, 1, 3}},
		types.Hash([]byte("state")),
	)
	got, err := DecodeBlock(EncodeBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != b.Height || got.PrevHash != b.PrevHash || got.StateHash != b.StateHash {
		t.Fatalf("chain fields mangled: %+v", got)
	}
	if got.Proof.Instance != 2 || got.Proof.Round != 11 || got.Proof.View != 1 ||
		got.Proof.Digest != b.Proof.Digest || len(got.Proof.Signers) != 3 {
		t.Fatalf("proof mangled: %+v", got.Proof)
	}
	if got.Batch.Digest() != b.Batch.Digest() {
		t.Fatal("batch mangled")
	}
	// The decoded block must hash identically — that is what lets restart
	// recovery verify the rebuilt chain head against pre-crash state.
	if got.Hash() != b.Hash() {
		t.Fatal("decoded block hashes differently")
	}
}

// TestEncodeBlockSizesOnce: the encoding is sized up front, so EncodeBlock
// allocates once whatever the batch size, and AppendBlock into a buffer
// that already fits allocates nothing and appends the same bytes.
func TestEncodeBlockSizesOnce(t *testing.T) {
	for _, n := range []int{4, 400} {
		batch := &types.Batch{Txns: make([]types.Transaction, n)}
		for i := range batch.Txns {
			batch.Txns[i] = types.Transaction{Client: 1, Seq: uint64(i + 1), Op: bytes.Repeat([]byte{byte(i)}, 69)}
		}
		b := New().Append(batch, Proof{Round: 1, Signers: []types.ReplicaID{0, 1, 2}}, types.Digest{})
		if got := testing.AllocsPerRun(20, func() { EncodeBlock(b) }); got != 1 {
			t.Errorf("%d txns: EncodeBlock made %v allocations, want 1", n, got)
		}
		buf := append([]byte("prefix"), EncodeBlock(b)...)
		if got := testing.AllocsPerRun(20, func() { AppendBlock(buf[:6], b) }); got != 0 {
			t.Errorf("%d txns: AppendBlock into a fitting buffer made %v allocations", n, got)
		}
		if !bytes.Equal(AppendBlock([]byte("prefix"), b), buf) {
			t.Errorf("%d txns: AppendBlock differs from prefix + EncodeBlock", n)
		}
	}
}

func TestDecodeBlockRejectsDamage(t *testing.T) {
	l := New()
	b := l.Append(batch(1, 1, "op"), Proof{Round: 1}, types.ZeroDigest)
	enc := EncodeBlock(b)
	if _, err := DecodeBlock(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if _, err := DecodeBlock(append(enc, 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeBlock(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := DecodeBlock(nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
}

func TestVerifyChecksProofDigest(t *testing.T) {
	l := New()
	good := batch(1, 1, "legit")
	l.Append(good, Proof{Round: 1, Digest: good.Digest()}, types.ZeroDigest)
	if err := l.Verify(); err != nil {
		t.Fatalf("matching proof digest rejected: %v", err)
	}
	// A proof whose digest certifies some OTHER proposal must fail audit.
	other := batch(1, 2, "swapped in")
	l.Append(other, Proof{Round: 2, Digest: types.Hash([]byte("not the batch"))}, types.ZeroDigest)
	if err := l.Verify(); err == nil {
		t.Fatal("proof digest not covering the batch went undetected")
	}
}

// FuzzDecodeBlock feeds hostile bytes to the block decoder that WAL replay
// and state transfer run. No input may panic, and any input that decodes
// must re-encode to the same bytes. Seeds: the blocks the tests above
// encode, each with every truncation.
//
//	go test -run '^$' -fuzz FuzzDecodeBlock -fuzztime 20s ./internal/ledger
func FuzzDecodeBlock(f *testing.F) {
	writes := &types.Batch{Txns: []types.Transaction{
		{Client: 7, Seq: 1, Op: []byte("write k1")},
		{Client: 9, Seq: 4, Op: []byte("write k2")},
	}}
	l := New()
	blocks := []*Block{
		l.Append(writes, Proof{Instance: 2, Round: 11, View: 1, Digest: writes.Digest(), Signers: []types.ReplicaID{0, 1, 3}}, types.Hash([]byte("state"))),
		l.Append(batch(1, 1, "op"), Proof{Round: 1}, types.ZeroDigest),
		NewAt(41, types.Hash([]byte("prev")), 0).Append(writes, Proof{Round: 1}, types.Hash([]byte("state"))),
	}
	for _, b := range blocks {
		enc := EncodeBlock(b)
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		b, err := DecodeBlock(enc)
		if err != nil {
			return
		}
		if again := EncodeBlock(b); !bytes.Equal(again, enc) {
			t.Fatalf("decoded block re-encodes differently:\n got %x\nwant %x", again, enc)
		}
	})
}
