package pbft

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ledger"
	"repro/internal/sm"
	"repro/internal/types"
)

// TestTallyOneDigestAllocatesNothing: a round's 2f PREPAREs and 2f+1
// COMMITs for one digest allocate nothing, a repeated vote counts once, and
// votes for a conflicting digest are counted apart.
func TestTallyOneDigestAllocatesNothing(t *testing.T) {
	const n = 4
	d := types.Hash([]byte("batch"))
	var rd round
	allocs := testing.AllocsPerRun(100, func() {
		rd = round{}
		for r := types.ReplicaID(1); r <= 2; r++ {
			rd.prepares.add(d, r, n)
		}
		for r := types.ReplicaID(0); r <= 2; r++ {
			rd.commits.add(d, r, n)
		}
	})
	if allocs != 0 {
		t.Fatalf("one round's votes made %.1f allocations, want 0", allocs)
	}
	if got := rd.commits.add(d, 1, n); got != 3 {
		t.Fatalf("a repeated COMMIT moved the count to %d, want 3", got)
	}
	other := types.Hash([]byte("equivocation"))
	if got := rd.commits.add(other, 3, n); got != 1 {
		t.Fatalf("first vote for a conflicting digest counted %d", got)
	}
	if got := rd.commits.add(other, 1, n); got != 2 {
		t.Fatalf("second vote for a conflicting digest counted %d", got)
	}
	if got := rd.commits.add(d, 3, n); got != 4 {
		t.Fatalf("replica 3's vote for the first digest counted %d, want 4", got)
	}
	if got := rd.commits.voters(other); !reflect.DeepEqual(got, []types.ReplicaID{1, 3}) {
		t.Fatalf("conflicting digest's voters %v, want [1 3]", got)
	}
}

// TestTallyLargeCluster: replica IDs past the inline word are counted and
// listed in ascending order.
func TestTallyLargeCluster(t *testing.T) {
	const n = 150
	d := types.Hash([]byte("batch"))
	var tl tally
	ids := []types.ReplicaID{149, 3, 64, 0, 127, 128, 63}
	for i, r := range ids {
		if got := tl.add(d, r, n); got != i+1 {
			t.Fatalf("vote %d of replica %d counted %d", i+1, r, got)
		}
	}
	want := []types.ReplicaID{0, 3, 63, 64, 127, 128, 149}
	if got := tl.voters(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("voters %v, want %v", got, want)
	}
}

// TestSignersAgreeAcrossReplicas: two replicas that collect the same
// COMMIT quorum in different orders journal byte-identical blocks, with the
// proof's signers in ascending ID order.
func TestSignersAgreeAcrossReplicas(t *testing.T) {
	b := &types.Batch{Txns: []types.Transaction{mkTx(1, 1), mkTx(2, 1)}}
	pp := &types.PrePrepare{Round: 1, Digest: b.Digest(), Batch: b}
	var blocks [][]byte
	for i, order := range [][]types.ReplicaID{{3, 1, 0}, {0, 3, 1}} {
		env := newRecEnv(types.ReplicaID(1 + i))
		p := New(Config{Primary: 0, FixedPrimary: true, Window: 4, BatchSize: 2})
		p.Start(env)
		p.OnMessage(sm.FromReplica(0), pp)
		for _, r := range order {
			p.OnMessage(sm.FromReplica(r), types.NewPrepare(0, r, 0, 1, pp.Digest))
		}
		for _, r := range order {
			p.OnMessage(sm.FromReplica(r), types.NewCommit(0, r, 0, 1, pp.Digest))
		}
		if len(env.decs) != 1 {
			t.Fatalf("replica %d delivered %d decisions", env.id, len(env.decs))
		}
		dec := env.decs[0]
		if want := []types.ReplicaID{0, 1, 3}; !reflect.DeepEqual(dec.Signers, want) {
			t.Fatalf("replica %d signers %v, want %v", env.id, dec.Signers, want)
		}
		blocks = append(blocks, ledger.EncodeBlock(&ledger.Block{
			Height: 1,
			Batch:  dec.Batch,
			Proof: ledger.Proof{
				Instance: dec.Instance, Round: dec.Round, View: dec.View,
				Digest: dec.Digest, Signers: dec.Signers,
			},
		}))
	}
	if !bytes.Equal(blocks[0], blocks[1]) {
		t.Fatal("the two replicas' blocks differ")
	}
}
