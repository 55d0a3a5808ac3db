package ycsb

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestOpCodecRoundTrip(t *testing.T) {
	f := func(key uint32, value []byte) bool {
		code, k, v, err := DecodeOp(EncodeWrite(key, value))
		if err != nil || code != OpWrite || k != key || len(v) != len(value) {
			return false
		}
		code, k, _, err = DecodeOp(EncodeRead(key))
		return err == nil && code == OpRead && k == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeOp([]byte{1, 2}); err == nil {
		t.Fatal("short op accepted")
	}
}

func TestStoreDeterministicAcrossReplicas(t *testing.T) {
	// Two replicas initialized alike and fed the same transactions must
	// reach identical state digests (§III-A: deterministic execution).
	a, b := NewStore(1000), NewStore(1000)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("fresh stores diverge")
	}
	wl := NewWorkload(WorkloadConfig{Records: 1000, Seed: 42})
	for i := 0; i < 500; i++ {
		tx := wl.Next(1)
		ra, rb := a.Execute(tx), b.Execute(tx)
		if string(ra) != string(rb) {
			t.Fatalf("results diverge at txn %d", i)
		}
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("state digests diverge after identical history")
	}
}

func TestStateDigestReflectsWrites(t *testing.T) {
	s := NewStore(100)
	before := s.StateDigest()
	s.Execute(types.Transaction{Client: 1, Seq: 1, Op: EncodeWrite(5, []byte("new"))})
	if s.StateDigest() == before {
		t.Fatal("digest unchanged after a write")
	}
	// Reads must not change state.
	mid := s.StateDigest()
	s.Execute(types.Transaction{Client: 1, Seq: 2, Op: EncodeRead(5)})
	if s.StateDigest() != mid {
		t.Fatal("digest changed by a read")
	}
}

func TestWriteRatioApproximatelyNinetyPercent(t *testing.T) {
	s := NewStore(DefaultRecords)
	wl := NewWorkload(WorkloadConfig{Seed: 7})
	const total = 5000
	for i := 0; i < total; i++ {
		s.Execute(wl.Next(1))
	}
	ratio := float64(s.Writes()) / float64(total)
	if ratio < 0.85 || ratio > 0.95 {
		t.Fatalf("write ratio %.3f, want ≈0.90 (paper §V-A)", ratio)
	}
}

func TestZipfianSkew(t *testing.T) {
	wl := NewWorkload(WorkloadConfig{Records: 10000, Seed: 3})
	counts := make(map[uint32]int)
	const total = 20000
	for i := 0; i < total; i++ {
		tx := wl.Next(1)
		_, key, _, err := DecodeOp(tx.Op)
		if err != nil {
			t.Fatal(err)
		}
		counts[key]++
	}
	// Zipfian: the hottest key must be far hotter than uniform (2/10000).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/total < 0.01 {
		t.Fatalf("hottest key only %.4f of accesses; distribution looks uniform", float64(max)/total)
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	w1 := NewWorkload(WorkloadConfig{Seed: 11})
	w2 := NewWorkload(WorkloadConfig{Seed: 11})
	for i := 0; i < 100; i++ {
		a, b := w1.Next(1), w2.Next(1)
		if a.Seq != b.Seq || string(a.Op) != string(b.Op) {
			t.Fatalf("workload diverges at %d", i)
		}
	}
	w3 := NewWorkload(WorkloadConfig{Seed: 12})
	same := true
	for i := 0; i < 20; i++ {
		if string(w1.Next(2).Op) != string(w3.Next(2).Op) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestSequenceNumbersPerClient(t *testing.T) {
	wl := NewWorkload(WorkloadConfig{Seed: 1})
	if wl.Next(1).Seq != 1 || wl.Next(1).Seq != 2 || wl.Next(2).Seq != 1 {
		t.Fatal("per-client sequence numbering broken")
	}
	b := wl.NextBatch(3, 10)
	if b.Len() != 10 || b.Txns[9].Seq != 10 {
		t.Fatal("batch generation broken")
	}
}

func TestExecuteRejectsGarbage(t *testing.T) {
	s := NewStore(10)
	out := s.Execute(types.Transaction{Client: 1, Seq: 1, Op: []byte{9, 9}})
	if len(out) != 1 || out[0] != 0xff {
		t.Fatal("garbage op not flagged")
	}
	if s.Execute(types.NoOp()) != nil {
		t.Fatal("noop produced output")
	}
}

// TestNoOpFootprintsAreEmpty pins Keys' contract: no-ops and malformed
// payloads execute statelessly, so they declare an empty footprint.
func TestNoOpFootprintsAreEmpty(t *testing.T) {
	s := NewStore(16)
	if keys, ok := s.Keys(types.NoOp(), nil); !ok || len(keys) != 0 {
		t.Fatalf("no-op footprint = %v, %v; want empty, true", keys, ok)
	}
	bad := types.Transaction{Client: 1, Seq: 1, Op: []byte{0xde}}
	if keys, ok := s.Keys(bad, nil); !ok || len(keys) != 0 {
		t.Fatalf("malformed footprint = %v, %v; want empty, true", keys, ok)
	}
}

// TestExecuteWriteAllocatesNothing: writes and rejections return shared
// constant results.
func TestExecuteWriteAllocatesNothing(t *testing.T) {
	s := NewStore(100)
	write := types.Transaction{Client: 1, Seq: 1, Op: EncodeWrite(7, []byte("value"))}
	if n := testing.AllocsPerRun(100, func() { s.Execute(write) }); n != 0 {
		t.Fatalf("a write allocates %v times, want 0", n)
	}
	if r := s.Execute(write); len(r) != 1 || r[0] != 1 {
		t.Fatalf("write result %v", r)
	}
	for _, op := range [][]byte{{9}, {9, 0, 0, 0, 1}} { // short, unknown opcode
		garbage := types.Transaction{Client: 1, Seq: 2, Op: op}
		if n := testing.AllocsPerRun(100, func() { s.Execute(garbage) }); n != 0 {
			t.Fatalf("rejecting %x allocates %v times, want 0", op, n)
		}
		if r := s.Execute(garbage); len(r) != 1 || r[0] != 0xff {
			t.Fatalf("rejecting %x: result %v", op, r)
		}
	}
}

// TestWorkloadOpsMatchTwoAllocationEncoding: building a write op in one
// allocation, with the value read from the generator straight into place,
// leaves seed 1's stream byte-identical to encoding a separately read
// value with EncodeWrite.
func TestWorkloadOpsMatchTwoAllocationEncoding(t *testing.T) {
	cfg := WorkloadConfig{Records: 1000, Seed: 1}
	w := NewWorkload(cfg)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.01, 1, uint64(cfg.Records-1))
	for i := 0; i < 1000; i++ {
		key := uint32(zipf.Uint64())
		var want []byte
		if rng.Float64() < DefaultWriteRatio {
			value := make([]byte, DefaultFieldLength)
			rng.Read(value)
			want = EncodeWrite(key, value)
		} else {
			want = EncodeRead(key)
		}
		tx := w.Next(3)
		if !bytes.Equal(tx.Op, want) || tx.Seq != uint64(i+1) || tx.Client != 3 {
			t.Fatalf("op %d: got %x (seq %d), want %x", i, tx.Op, tx.Seq, want)
		}
	}
}
