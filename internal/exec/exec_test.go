package exec

import (
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bank"
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

// TestGoldenResultHashes pins reply compatibility: a fixed batch's
// ResultHash (Hash of the concatenated per-transaction result hashes) and
// StateHash must equal the values earlier releases returned, or replicas
// running different versions stop agreeing on client replies.
func TestGoldenResultHashes(t *testing.T) {
	yb, bb := goldenBatches()
	opening := make(map[string]int64)
	for i := 0; i < 11; i++ {
		opening[fmt.Sprintf("acct-%02d", i)] = 100
	}
	for _, c := range []struct {
		name          string
		app           Application
		b             *types.Batch
		result, state string
	}{
		{"ycsb", ycsb.NewStore(16), yb,
			"6566399e5e6c43accf4423d950353e9195ae099b0c2e397c09cc8296103ec2c7",
			"4386d0668bcfc971e56ff642edf3389bcb75e9e84fa1f709cd9e11a157e5ec32"},
		{"bank", bank.New(opening), bb,
			"d4abd5be4fc701b0207a961cac5b470db984a8b65109206081fdd7c28a9a1b3e",
			"d58dc4704f03c16f2069d0f6abd8fd13d06c5d93ab96c9655b47af73115e5de2"},
	} {
		res := NewEngine(c.app, nil).ExecuteBatch(c.b, ledger.Proof{Round: 1})
		if got := hex.EncodeToString(res.ResultHash[:]); got != c.result {
			t.Errorf("%s: ResultHash %s, want %s", c.name, got, c.result)
		}
		if got := hex.EncodeToString(res.StateHash[:]); got != c.state {
			t.Errorf("%s: StateHash %s, want %s", c.name, got, c.state)
		}
	}
}

// TestExecutedCounterRaceSafe drives the engine while another goroutine
// polls Executed() — the metrics scrape path — and a Restore lands between
// batches. Run under -race this pins the atomic counter.
func TestExecutedCounterRaceSafe(t *testing.T) {
	e := NewEngine(ycsb.NewStore(128), nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Executed()
			}
		}
	}()
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 128, WriteRatio: 0.7, FieldLen: 8, Seed: 42})
	var want uint64
	for i := 0; i < 30; i++ {
		b := wl.NextBatch(types.ClientID(i%13+1), 64)
		want += uint64(len(b.Txns))
		e.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)})
		if i == 15 {
			e.Restore(e.Executed()) // restart replay primes the counter
		}
	}
	close(stop)
	wg.Wait()
	if got := e.Executed(); got != want {
		t.Fatalf("executed %d, want %d", got, want)
	}
}
