package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bank"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func batch(txns ...types.Transaction) *types.Batch { return &types.Batch{Txns: txns} }

func wtx(c types.ClientID, seq uint64, key uint32) types.Transaction {
	return types.Transaction{Client: c, Seq: seq, Op: ycsb.EncodeWrite(key, []byte("v"))}
}

func TestApplyHashesAndMutates(t *testing.T) {
	app := ycsb.NewStore(100)
	before := app.StateDigest()
	if Apply(app, batch(wtx(1, 1, 1), wtx(1, 2, 2)).Txns).IsZero() {
		t.Fatal("zero ResultHash")
	}
	if app.StateDigest() == before {
		t.Fatal("batch left the application state unchanged")
	}
}

func TestIdenticalHistoriesProduceIdenticalResults(t *testing.T) {
	// §III-A determinism: same batches in the same order → same result
	// hashes and state hashes on independent replicas.
	type result struct{ res, state types.Digest }
	mk := func() []result {
		app := ycsb.NewStore(100)
		var out []result
		for r := uint64(1); r <= 5; r++ {
			res := Apply(app, batch(
				wtx(1, r*2-1, uint32(r)),
				wtx(2, r, uint32(r+50)),
			).Txns)
			out = append(out, result{res, app.StateDigest()})
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverges", i+1)
		}
	}
}

// TestResultHashIgnoresHistory: a batch's ResultHash depends only on the
// batch and its per-transaction results, not on how many transactions ran
// before it — two replicas that interleave other clients' disjoint work
// differently still hand a client the same result digest. StateHash is
// what commits to history.
func TestResultHashIgnoresHistory(t *testing.T) {
	fresh, busy := ycsb.NewStore(100), ycsb.NewStore(100)
	Apply(busy, batch(wtx(2, 1, 60), wtx(2, 2, 61)).Txns)
	b := batch(wtx(1, 1, 1), wtx(1, 2, 2))
	if Apply(fresh, b.Txns) != Apply(busy, b.Txns) {
		t.Fatal("ResultHash depends on previously executed transactions")
	}
	if fresh.StateDigest() == busy.StateDigest() {
		t.Fatal("StateHash ignores history")
	}
}

func TestOrderSensitivity(t *testing.T) {
	// Different execution orders must yield different state hashes when
	// the transactions conflict (that is the whole point of consensus).
	app1, app2 := ycsb.NewStore(100), ycsb.NewStore(100)
	a := types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-a"))}
	b := types.Transaction{Client: 2, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-b"))}
	Apply(app1, batch(a, b).Txns)
	Apply(app2, batch(b, a).Txns)
	if app1.StateDigest() == app2.StateDigest() {
		t.Fatal("conflicting orders produced identical state")
	}
}

// goldenBatches returns one fixed YCSB batch and one fixed bank batch, each
// with conflicting transactions whose results depend on batch order.
func goldenBatches() (ycsbBatch, bankBatch *types.Batch) {
	ycsbBatch = &types.Batch{}
	for i := 0; i < 48; i++ {
		key := uint32(i*7) % 16
		op := ycsb.EncodeWrite(key, []byte{byte(i), byte(i * 3)})
		if i%3 == 0 {
			op = ycsb.EncodeRead(key)
		}
		ycsbBatch.Txns = append(ycsbBatch.Txns, types.Transaction{Client: types.ClientID(i%5 + 1), Seq: uint64(i + 1), Op: op})
	}
	ycsbBatch.Txns = append(ycsbBatch.Txns, types.NoOp(), types.Transaction{Client: 9, Seq: 1, Op: []byte{0xde}})

	bankBatch = &types.Batch{}
	for i := 0; i < 48; i++ {
		t := bank.Transfer{
			From:      fmt.Sprintf("acct-%02d", i%11),
			To:        fmt.Sprintf("acct-%02d", (i*5+3)%11),
			Threshold: int64(i * 13 % 200),
			Amount:    int64(i*7%50 + 1),
		}
		bankBatch.Txns = append(bankBatch.Txns, types.Transaction{Client: 1, Seq: uint64(i + 1), Op: t.Encode()})
	}
	bankBatch.Txns = append(bankBatch.Txns, types.NoOp(), types.Transaction{Client: 9, Seq: 1, Op: []byte{0xde}})
	return ycsbBatch, bankBatch
}

// referenceResultHash computes ResultHash from its definition with
// crypto/sha256 alone: one hash over each transaction's result, in batch
// order, as a u32 big-endian length followed by the result bytes.
func referenceResultHash(app Application, b *types.Batch) types.Digest {
	h := sha256.New()
	for _, tx := range b.Txns {
		r := app.Execute(tx)
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(r))))
		h.Write(r)
	}
	var d types.Digest
	h.Sum(d[:0])
	return d
}

// TestGoldenResultHashes pins reply compatibility: a fixed batch's
// ResultHash (one SHA-256 over every result as u32 length ‖ bytes, in
// batch order; wire v8) and StateHash must equal the values earlier
// releases returned, or replicas running different versions stop agreeing
// on client replies. The result constants moved when wire v8 redefined
// ResultHash; the state constants never move. Each ResultHash is also
// recomputed from the definition.
func TestGoldenResultHashes(t *testing.T) {
	yb, bb := goldenBatches()
	opening := make(map[string]int64)
	for i := 0; i < 11; i++ {
		opening[fmt.Sprintf("acct-%02d", i)] = 100
	}
	for _, c := range []struct {
		name          string
		app           func() Application
		b             *types.Batch
		result, state string
	}{
		{"ycsb", func() Application { return ycsb.NewStore(16) }, yb,
			"39bf9c7782547b99c08c7ea28d05624dfa76e4bf1f5d43ceef8dc5743d0c1ef7",
			"4386d0668bcfc971e56ff642edf3389bcb75e9e84fa1f709cd9e11a157e5ec32"},
		{"bank", func() Application { return bank.New(opening) }, bb,
			"06d64598da89dda632b71e420d674586c5bbad3ce9c37f2561d4e3c5a6e761b2",
			"d58dc4704f03c16f2069d0f6abd8fd13d06c5d93ab96c9655b47af73115e5de2"},
	} {
		app := c.app()
		res := Apply(app, c.b.Txns)
		state := app.StateDigest()
		if got := hex.EncodeToString(res[:]); got != c.result {
			t.Errorf("%s: ResultHash %s, want %s", c.name, got, c.result)
		}
		if ref := referenceResultHash(c.app(), c.b); res != ref {
			t.Errorf("%s: ResultHash %x, definition gives %x", c.name, res, ref)
		}
		if got := hex.EncodeToString(state[:]); got != c.state {
			t.Errorf("%s: StateHash %s, want %s", c.name, got, c.state)
		}
	}
}

// sizedApp returns, for each transaction, a result of as many bytes as the
// op's first two bytes say (big-endian), filled with the seq.
type sizedApp struct{}

func (sizedApp) Execute(tx types.Transaction) []byte {
	n := int(binary.BigEndian.Uint16(tx.Op))
	r := make([]byte, n)
	for i := range r {
		r[i] = byte(tx.Seq)
	}
	return r
}

func (sizedApp) StateDigest() types.Digest { return types.Digest{} }

// TestResultHashChunkBoundaries checks ResultHash against its definition
// around Apply's 1 KiB hashing buffer: empty results, results that
// fill it exactly or overflow it by one byte, and results larger than it.
func TestResultHashChunkBoundaries(t *testing.T) {
	sizes := [][]int{
		{}, {0}, {1020}, {1021}, {1019, 1}, {1, 1016}, {1, 1017},
		{3000}, {5, 3000, 7}, {200, 200, 200, 200, 200, 200},
		{0, 0, 4096, 0, 1020, 1020, 1},
	}
	for _, sz := range sizes {
		b := &types.Batch{}
		for i, n := range sz {
			op := binary.BigEndian.AppendUint16(nil, uint16(n))
			b.Txns = append(b.Txns, types.Transaction{Client: 1, Seq: uint64(i + 1), Op: op})
		}
		res := Apply(sizedApp{}, b.Txns)
		if ref := referenceResultHash(sizedApp{}, b); res != ref {
			t.Errorf("sizes %v: ResultHash %x, definition gives %x", sz, res, ref)
		}
	}
}
