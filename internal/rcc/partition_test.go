package rcc

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// TestFullPartitionHeals drops ALL replica-to-replica traffic for a while —
// every instance experiences a round failure (§III-C: "instances can also
// fail due to periods of unreliable communication") — then heals the
// network. The exponential FAILURE rebroadcast must re-establish confirmed
// failures, stop operations must void the lost rounds, and every instance
// must resume serving its clients.
func TestFullPartitionHeals(t *testing.T) {
	n := 4
	partitioned := false
	netcfg := simnet.Config{
		Latency: time.Millisecond,
		Drop: func(from, to types.ReplicaID, m types.Message) bool {
			return partitioned
		},
	}
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		Window:          4,
		ProgressTimeout: 100 * time.Millisecond,
		RecoveryTimeout: 300 * time.Millisecond,
	}, netcfg)

	// Healthy warm-up round.
	for c := types.ClientID(1); c <= 4; c++ {
		inject(net, n, mkTx(c, 1))
	}
	net.Run(2 * time.Second)
	for i := 0; i < n; i++ {
		if reps[i].RoundsExecuted() == 0 {
			t.Fatalf("replica %d made no progress before the partition", i)
		}
	}

	// Partition everything; demand keeps arriving (clients are unaffected
	// by the replica-to-replica drop rule). Clients retransmit unserved
	// requests (§III-E forced execution) — modeled by periodic
	// re-injection; the replicas deduplicate.
	partitioned = true
	retransmit := func(tx types.Transaction, from, until time.Duration) {
		for at := from; at < until; at += 500 * time.Millisecond {
			injectAt(net, n, at, tx)
		}
	}
	for c := types.ClientID(1); c <= 4; c++ {
		retransmit(mkTx(c, 2), net.Now()+50*time.Millisecond, net.Now()+24*time.Second)
	}
	net.Run(net.Now() + 4*time.Second)

	// Heal and give the exponential rebroadcasts time to fire.
	partitioned = false
	for c := types.ClientID(1); c <= 4; c++ {
		retransmit(mkTx(c, 3), net.Now()+100*time.Millisecond, net.Now()+20*time.Second)
	}
	net.Run(net.Now() + 25*time.Second)

	for i := 0; i < n; i++ {
		txns := realTxns(net.Node(types.ReplicaID(i)).Decisions())
		// All 12 transactions (3 per client) must eventually execute:
		// seq 2 either committed before the partition bit or was
		// re-proposed after healing.
		perClient := map[types.ClientID]int{}
		for _, tx := range txns {
			perClient[tx.Client]++
		}
		for c := types.ClientID(1); c <= 4; c++ {
			if perClient[c] < 3 {
				t.Fatalf("replica %d: client %d has %d txns after healing, want 3", i, c, perClient[c])
			}
		}
	}
	sameOrder(t, net, allIDs(n))
}

// TestSwitchInstanceDuringFailure exercises §III-E end to end on the
// simulator: the client of a crashed primary requests reassignment and its
// transactions flow through the new instance.
func TestSwitchInstanceDuringFailure(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		Window:          4,
		sigma:           2,
		ProgressTimeout: 100 * time.Millisecond,
		RecoveryTimeout: 300 * time.Millisecond,
	}, simnet.Config{})

	// Warm up all instances, then crash instance 1's primary.
	for c := types.ClientID(1); c <= 4; c++ {
		inject(net, n, mkTx(c, 1))
	}
	net.Run(2 * time.Second)
	net.Crash(1)

	// Client 1 (served by instance 1) asks to move to instance 3,
	// rebroadcasting until the reassignment is agreed (the coordinator of
	// the old instance may be mid-recovery when the first copy arrives).
	sw := &types.SwitchInstance{Client: 1, To: 3}
	sw.Inst = 1
	for k := 0; k < 16; k++ {
		net.Schedule(net.Now()+200*time.Millisecond+time.Duration(k)*500*time.Millisecond, func() {
			for i := 0; i < n; i++ {
				node := net.Node(types.ReplicaID(i))
				node.Machine().OnMessage(sm.FromClient(1), sw)
			}
		})
	}
	// Keep the other instances moving so the reassignment schedule
	// matures (activation is keyed to round progress, §III-E).
	for s := uint64(2); s <= 16; s++ {
		for _, c := range []types.ClientID{2, 3, 4} {
			injectAt(net, n, net.Now()+time.Duration(s)*50*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(net.Now() + 10*time.Second)

	// Now client 1's next transaction must be served by instance 3.
	inject(net, n, mkTx(1, 2))
	net.Run(net.Now() + 5*time.Second)

	for _, i := range []int{0, 2, 3} {
		if got := reps[i].Assignment(1); got != 3 {
			t.Fatalf("replica %d assignment(client 1) = %d, want 3", i, got)
		}
	}
	found := false
	for _, d := range net.Node(0).Decisions() {
		if d.Batch == nil || d.Instance != 3 {
			continue
		}
		for _, tx := range d.Batch.Txns {
			if tx.Client == 1 && tx.Seq == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("client 1's post-switch transaction never flowed through instance 3")
	}
}
