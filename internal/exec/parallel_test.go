package exec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// newPerturbedEngine builds an engine whose pool scheduling is actively
// hostile to accidental determinism: group dispatch order is shuffled and
// workers sleep a random few microseconds before each group, so completion
// order varies run to run. Results must not.
func newPerturbedEngine(app Application, workers int, seed int64) *Engine {
	e := NewEngineOpts(app, nil, Options{Workers: workers, minParallel: 2})
	if workers > 1 {
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		e.shuffleDispatch = func(order []int) {
			mu.Lock()
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			mu.Unlock()
		}
		e.perturb = func() {
			mu.Lock()
			d := time.Duration(rng.Intn(20)) * time.Microsecond
			mu.Unlock()
			time.Sleep(d)
		}
	}
	return e
}

// ycsbRounds builds a deterministic sequence of mixed read/write batches
// with a Zipfian key distribution (plenty of conflicts AND plenty of
// parallelism in every batch).
func ycsbRounds(rounds, batchSize int) []*types.Batch {
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 256, WriteRatio: 0.7, FieldLen: 8, Seed: 42})
	out := make([]*types.Batch, rounds)
	for r := range out {
		out[r] = wl.NextBatch(types.ClientID(r%13+1), batchSize)
	}
	return out
}

// bankRounds builds batches of conditional transfers over a small account
// set: heavy conflicts whose outcomes are order-sensitive (Example IV.1).
func bankRounds(rounds, batchSize int) []*types.Batch {
	rng := rand.New(rand.NewSource(7))
	out := make([]*types.Batch, rounds)
	seq := uint64(0)
	for r := range out {
		b := &types.Batch{Txns: make([]types.Transaction, 0, batchSize)}
		for i := 0; i < batchSize; i++ {
			seq++
			t := bank.Transfer{
				From:      fmt.Sprintf("acct-%02d", rng.Intn(48)),
				To:        fmt.Sprintf("acct-%02d", rng.Intn(48)),
				Threshold: int64(rng.Intn(200)),
				Amount:    int64(rng.Intn(50)),
			}
			b.Txns = append(b.Txns, types.Transaction{Client: 1, Seq: seq, Op: t.Encode()})
		}
		out[r] = b
	}
	return out
}

func bankOpening() map[string]int64 {
	opening := make(map[string]int64, 48)
	for i := 0; i < 48; i++ {
		opening[fmt.Sprintf("acct-%02d", i)] = 500
	}
	return opening
}

// digests runs every round through a fresh engine and returns the
// ResultHash/StateHash sequence.
func digests(e *Engine, rounds []*types.Batch) []Result {
	defer e.Close()
	out := make([]Result, len(rounds))
	for i, b := range rounds {
		out[i] = e.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)})
	}
	return out
}

func requireSameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	for i := range want {
		if want[i].ResultHash != got[i].ResultHash {
			t.Fatalf("%s: round %d ResultHash diverges from serial", label, i+1)
		}
		if want[i].StateHash != got[i].StateHash {
			t.Fatalf("%s: round %d StateHash diverges from serial", label, i+1)
		}
	}
}

// TestParallelDeterminismAcrossWorkerCounts is the cross-replica
// determinism property: the same unified rounds executed with workers=1,
// 4, and 32 — under shuffled dispatch and jittered worker scheduling —
// must produce identical ResultHash and StateDigest sequences. One
// replica's worker-count knob must never show in its replies.
func TestParallelDeterminismAcrossWorkerCounts(t *testing.T) {
	const rounds, batchSize = 40, 96
	ycsbBatches := ycsbRounds(rounds, batchSize)
	bankBatches := bankRounds(rounds, batchSize)

	serialY := digests(NewEngine(ycsb.NewStore(256), nil), ycsbBatches)
	serialB := digests(NewEngine(bank.New(bankOpening()), nil), bankBatches)

	for _, workers := range []int{1, 4, 32} {
		for seed := int64(0); seed < 3; seed++ {
			label := fmt.Sprintf("ycsb/workers=%d/seed=%d", workers, seed)
			got := digests(newPerturbedEngine(ycsb.NewStore(256), workers, seed), ycsbBatches)
			requireSameResults(t, serialY, got, label)

			label = fmt.Sprintf("bank/workers=%d/seed=%d", workers, seed)
			got = digests(newPerturbedEngine(bank.New(bankOpening()), workers, seed), bankBatches)
			requireSameResults(t, serialB, got, label)
		}
	}
}

// TestHotKeyAdversarialSerialization is the conflict-heavy adversary:
// every transaction touches one hot record, so the whole batch is a single
// conflict component and MUST serialize in batch order — the read results
// (which expose order directly) and all digests must match the serial
// engine exactly.
func TestHotKeyAdversarialSerialization(t *testing.T) {
	const rounds, batchSize = 10, 64
	const hot = uint32(9)
	rng := rand.New(rand.NewSource(3))
	batches := make([]*types.Batch, rounds)
	seq := uint64(0)
	for r := range batches {
		b := &types.Batch{}
		for i := 0; i < batchSize; i++ {
			seq++
			var op []byte
			if rng.Intn(3) == 0 {
				op = ycsb.EncodeRead(hot)
			} else {
				val := make([]byte, 8)
				rng.Read(val)
				op = ycsb.EncodeWrite(hot, val)
			}
			b.Txns = append(b.Txns, types.Transaction{Client: 2, Seq: seq, Op: op})
		}
		batches[r] = b
	}
	serial := digests(NewEngine(ycsb.NewStore(64), nil), batches)
	parallel := digests(newPerturbedEngine(ycsb.NewStore(64), 8, 1), batches)
	requireSameResults(t, serial, parallel, "hot-key")
}

// barrierApp exercises the unknown-footprint path: ops with code 2 report
// ok=false from Keys and read ALL records (order-sensitive against every
// write), so they are only correct if the engine runs them alone between
// parallel groups.
type barrierApp struct {
	vals   []uint64
	global uint64
}

func (a *barrierApp) Execute(tx types.Transaction) []byte {
	switch tx.Op[0] {
	case 1: // write vals[Op[1]]
		idx := int(tx.Op[1]) % len(a.vals)
		old := a.vals[idx]
		a.vals[idx] = old*31 + uint64(tx.Op[2]) + 1
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, old)
		return out
	default: // barrier: fold the whole table into the global accumulator
		sum := a.global * 1099511628211
		for _, v := range a.vals {
			sum += v
		}
		a.global = sum
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, sum)
		return out
	}
}

func (a *barrierApp) Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool) {
	if tx.Op[0] == 1 {
		return append(buf, types.StateKey(int(tx.Op[1])%len(a.vals))), true
	}
	return buf, false
}

func (a *barrierApp) StateDigest() types.Digest {
	buf := make([]byte, 0, 8*(len(a.vals)+1))
	buf = binary.BigEndian.AppendUint64(buf, a.global)
	for _, v := range a.vals {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return types.Hash(buf)
}

// TestUnknownFootprintBarrier mixes full-state transactions (Keys returns
// ok=false) into parallel batches and checks the outcome still matches the
// serial engine: barriers split the batch into segments and run alone.
func TestUnknownFootprintBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rounds, batchSize = 12, 80
	batches := make([]*types.Batch, rounds)
	seq := uint64(0)
	for r := range batches {
		b := &types.Batch{}
		for i := 0; i < batchSize; i++ {
			seq++
			var op []byte
			if rng.Intn(10) == 0 {
				op = []byte{2}
			} else {
				op = []byte{1, byte(rng.Intn(64)), byte(rng.Intn(256))}
			}
			b.Txns = append(b.Txns, types.Transaction{Client: 3, Seq: seq, Op: op})
		}
		batches[r] = b
	}
	mk := func() *barrierApp { return &barrierApp{vals: make([]uint64, 64)} }
	serial := digests(NewEngine(mk(), nil), batches)
	parallel := digests(newPerturbedEngine(mk(), 8, 5), batches)
	requireSameResults(t, serial, parallel, "barrier")
}

// TestNoOpFootprintsAreEmpty pins the contract both applications rely on:
// no-ops and malformed payloads execute statelessly and declare empty
// footprints, so they never serialize an otherwise conflict-free batch.
func TestNoOpFootprintsAreEmpty(t *testing.T) {
	apps := []Application{ycsb.NewStore(16), bank.New(nil)}
	for _, app := range apps {
		noop := types.NoOp()
		if keys, ok := app.Keys(noop, nil); !ok || len(keys) != 0 {
			t.Fatalf("%T: no-op footprint = %v, %v; want empty, true", app, keys, ok)
		}
		bad := types.Transaction{Client: 1, Seq: 1, Op: []byte{0xde}}
		if keys, ok := app.Keys(bad, nil); !ok || len(keys) != 0 {
			t.Fatalf("%T: malformed footprint = %v, %v; want empty, true", app, keys, ok)
		}
	}
}

// TestExecutedCounterRaceSafe drives the engine while another goroutine
// polls Executed() — the metrics scrape path — and a Restore lands between
// batches. Run under -race this pins the atomic counter fix.
func TestExecutedCounterRaceSafe(t *testing.T) {
	e := NewEngineOpts(ycsb.NewStore(128), nil, Options{Workers: 4, minParallel: 2})
	defer e.Close()
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
	rounds := ycsbRounds(30, 64)
	for i, b := range rounds {
		e.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)})
		if i == len(rounds)/2 {
			e.Restore(e.Executed()) // restart replay primes the counter
		}
	}
	close(stop)
	wg.Wait()
	var want uint64
	for _, b := range rounds {
		want += uint64(len(b.Txns))
	}
	if got := e.Executed(); got != want {
		t.Fatalf("executed %d, want %d", got, want)
	}
}

// TestParallelEngineCountsExecuted checks the executed counter advances
// identically on serial and parallel engines, with matching ResultHashes.
func TestParallelEngineCountsExecuted(t *testing.T) {
	rounds := ycsbRounds(5, 33)
	es := NewEngine(ycsb.NewStore(256), nil)
	ep := newPerturbedEngine(ycsb.NewStore(256), 8, 2)
	defer ep.Close()
	for i, b := range rounds {
		rs := es.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)})
		rp := ep.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)})
		if rs.ResultHash != rp.ResultHash {
			t.Fatalf("round %d: ResultHash diverges", i+1)
		}
	}
	if es.Executed() != ep.Executed() {
		t.Fatalf("executed counters diverge: %d vs %d", es.Executed(), ep.Executed())
	}
}
