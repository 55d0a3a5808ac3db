package exec

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func batch(txns ...types.Transaction) *types.Batch { return &types.Batch{Txns: txns} }

func wtx(c types.ClientID, seq uint64, key uint32) types.Transaction {
	return types.Transaction{Client: c, Seq: seq, Op: ycsb.EncodeWrite(key, []byte("v"))}
}

func TestExecuteBatchCountsAndHashes(t *testing.T) {
	e := NewEngine(ycsb.NewStore(100), nil)
	res := e.ExecuteBatch(batch(wtx(1, 1, 1), wtx(1, 2, 2)), ledger.Proof{Round: 1})
	if res.TxnExecuted != 2 || e.Executed() != 2 {
		t.Fatalf("executed %d/%d", res.TxnExecuted, e.Executed())
	}
	if res.ResultHash.IsZero() || res.StateHash.IsZero() {
		t.Fatal("zero hashes")
	}
}

func TestIdenticalHistoriesProduceIdenticalResults(t *testing.T) {
	// §III-A determinism: same batches in the same order → same result
	// hashes and state hashes on independent replicas.
	mk := func() []Result {
		e := NewEngine(ycsb.NewStore(100), nil)
		var out []Result
		for r := types.Round(1); r <= 5; r++ {
			out = append(out, e.ExecuteBatch(batch(
				wtx(1, uint64(r)*2-1, uint32(r)),
				wtx(2, uint64(r), uint32(r+50)),
			), ledger.Proof{Round: r}))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].ResultHash != b[i].ResultHash || a[i].StateHash != b[i].StateHash {
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
	fresh := NewEngine(ycsb.NewStore(100), nil)
	busy := NewEngine(ycsb.NewStore(100), nil)
	busy.ExecuteBatch(batch(wtx(2, 1, 60), wtx(2, 2, 61)), ledger.Proof{Round: 1})
	b := batch(wtx(1, 1, 1), wtx(1, 2, 2))
	r1 := fresh.ExecuteBatch(b, ledger.Proof{Round: 1})
	r2 := busy.ExecuteBatch(b, ledger.Proof{Round: 2})
	if r1.ResultHash != r2.ResultHash {
		t.Fatal("ResultHash depends on previously executed transactions")
	}
	if r1.StateHash == r2.StateHash {
		t.Fatal("StateHash ignores history")
	}
}

func TestOrderSensitivity(t *testing.T) {
	// Different execution orders must yield different state hashes when
	// the transactions conflict (that is the whole point of consensus).
	e1 := NewEngine(ycsb.NewStore(100), nil)
	e2 := NewEngine(ycsb.NewStore(100), nil)
	a := types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-a"))}
	b := types.Transaction{Client: 2, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-b"))}
	r1 := e1.ExecuteBatch(batch(a, b), ledger.Proof{})
	r2 := e2.ExecuteBatch(batch(b, a), ledger.Proof{})
	if r1.StateHash == r2.StateHash {
		t.Fatal("conflicting orders produced identical state")
	}
}

func TestJournalling(t *testing.T) {
	l := ledger.New()
	e := NewEngine(ycsb.NewStore(100), MemJournal{l})
	res := e.ExecuteBatch(batch(wtx(1, 1, 3)), ledger.Proof{Instance: 2, Round: 9})
	if res.Block == nil {
		t.Fatal("no block journalled")
	}
	if l.Height() != 1 || l.Head().Proof.Round != 9 {
		t.Fatal("ledger state wrong")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNilJournalIsFine(t *testing.T) {
	e := NewEngine(ycsb.NewStore(10), nil)
	if res := e.ExecuteBatch(batch(wtx(1, 1, 1)), ledger.Proof{}); res.Block != nil {
		t.Fatal("block produced without a journal")
	}
}

// asyncLedger wraps the in-memory ledger with a deferred-completion journal
// — the shape internal/store provides.
type asyncLedger struct {
	l       *ledger.Ledger
	pending []func(error)
}

func (a *asyncLedger) AppendAsync(b *types.Batch, p ledger.Proof, s types.Digest, done func(error)) *ledger.Block {
	blk := a.l.Append(b, p, s)
	a.pending = append(a.pending, done)
	return blk
}

func (a *asyncLedger) complete(err error) {
	for _, done := range a.pending {
		done(err)
	}
	a.pending = nil
}

func TestExecuteBatchAsyncDefersCompletion(t *testing.T) {
	aj := &asyncLedger{l: ledger.New()}
	e := NewEngine(ycsb.NewStore(100), aj)
	var got []Result
	res := e.ExecuteBatchAsync(batch(wtx(1, 1, 3)), ledger.Proof{Round: 4}, func(r Result, err error) {
		if err != nil {
			t.Errorf("completion error: %v", err)
		}
		got = append(got, r)
	})
	if res.Block == nil {
		t.Fatal("no block journalled")
	}
	if len(got) != 0 {
		t.Fatal("completion fired before the journal reported durable")
	}
	aj.complete(nil)
	if len(got) != 1 {
		t.Fatalf("%d completions, want 1", len(got))
	}
	if got[0].ResultHash != res.ResultHash || got[0].Round != res.Round {
		t.Fatal("completion result differs from the returned result")
	}
	if got[0].Block != nil {
		t.Fatal("completion result must not carry the block")
	}
}

func TestExecuteBatchAsyncMemJournalCompletesInline(t *testing.T) {
	l := ledger.New()
	e := NewEngine(ycsb.NewStore(100), MemJournal{l})
	fired := false
	res := e.ExecuteBatchAsync(batch(wtx(1, 1, 3)), ledger.Proof{Round: 1}, func(r Result, err error) {
		fired = true
		if err != nil {
			t.Errorf("completion error: %v", err)
		}
	})
	if !fired {
		t.Fatal("in-memory journal must complete inline")
	}
	if res.Block == nil || l.Height() != 1 {
		t.Fatal("block not journalled")
	}
}

func TestExecuteBatchAsyncNilJournalCompletesInline(t *testing.T) {
	e := NewEngine(ycsb.NewStore(10), nil)
	fired := false
	e.ExecuteBatchAsync(batch(wtx(1, 1, 1)), ledger.Proof{}, func(Result, error) { fired = true })
	if !fired {
		t.Fatal("nil journal must complete inline")
	}
}
