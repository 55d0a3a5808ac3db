package rcc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// TestSyncPointRoundTrip: a fresh replica that installs a running cluster's
// sync point adopts the execution frontier, every instance's delivery
// watermark, and the checkpoint chain anchors — the machine half of a state
// transfer.
func TestSyncPointRoundTrip(t *testing.T) {
	const n = 4
	net, reps := cluster(t, n, Config{BatchSize: 1, Window: 4}, simnet.Config{})
	for seq := uint64(1); seq <= 6; seq++ {
		inject(net, n, mkTx(1, seq))
		net.Run(net.Now() + 200*time.Millisecond)
	}
	if reps[0].ExecRound() < 2 {
		t.Fatalf("cluster made no progress (exec round %d)", reps[0].ExecRound())
	}

	// Determinism: replicas at the same frontier serialize identically.
	sp := reps[0].SyncPoint()
	if sp == nil {
		t.Fatal("PBFT-backed RCC must support sync points")
	}
	for i := 1; i < n; i++ {
		if reps[i].ExecRound() == reps[0].ExecRound() && !bytes.Equal(reps[i].SyncPoint(), sp) {
			t.Fatalf("replica %d at the same frontier serializes a different sync point", i)
		}
	}

	// A fresh replica (same deployment shape) installs the frontier.
	net2, reps2 := cluster(t, n, Config{BatchSize: 1, Window: 4}, simnet.Config{})
	_ = net2
	fresh := reps2[0]
	if err := fresh.InstallSyncPoint(sp); err != nil {
		t.Fatalf("install: %v", err)
	}
	if fresh.ExecRound() != reps[0].ExecRound() {
		t.Fatalf("installed exec round %d, want %d", fresh.ExecRound(), reps[0].ExecRound())
	}
	for i := 0; i < fresh.M(); i++ {
		got, want := fresh.Status(types.InstanceID(i)), reps[0].Status(types.InstanceID(i))
		if got.LastDecided != want.LastDecided || got.VoidBelow != want.VoidBelow {
			t.Fatalf("instance %d installed %+v, want %+v", i, got, want)
		}
	}
	// And the installed frontier re-serializes to the same bytes.
	if !bytes.Equal(fresh.SyncPoint(), sp) {
		t.Fatal("installed sync point does not round-trip")
	}

	// Malformed and mismatched inputs are refused (checked on a replica
	// that has not installed anything, so the idempotent already-at-
	// frontier early-out cannot mask the refusal).
	if err := fresh.InstallSyncPoint([]byte{9, 9, 9}); err == nil {
		t.Fatal("malformed sync point accepted")
	}
	if err := reps2[1].InstallSyncPoint(sp[:len(sp)-3]); err == nil {
		t.Fatal("truncated sync point accepted")
	}
}

// TestSyncPointCarriesDecidedRounds: an instance's frontier counts rounds
// it decided while the wave waits on other instances, and those decisions
// exist nowhere else. A replica installing the frontier must queue them for
// execution; otherwise a later stop voids the rounds on it alone and its
// chain forks from the cluster's.
func TestSyncPointCarriesDecidedRounds(t *testing.T) {
	sp, ahead := decidedAheadSyncPoint(t)
	_, reps2 := cluster(t, 4, decidedAheadConfig, simnet.Config{})
	fresh := reps2[0]
	if err := fresh.InstallSyncPoint(sp); err != nil {
		t.Fatalf("install: %v", err)
	}
	got, ok := fresh.states[1].decided[2]
	if !ok || got.Digest != ahead.Digest || got.Batch.Digest() != ahead.Digest {
		t.Fatalf("installed replica holds instance 1 round 2: %v (digest %v), want %v", ok, got.Digest, ahead.Digest)
	}
	if !bytes.Equal(fresh.SyncPoint(), sp) {
		t.Fatal("installed sync point does not round-trip")
	}
}

// TestSyncPointRefusesSwappedDecision: a decision carried by a sync point is
// checked like every other Decision source — its digest must cover its
// batch, because the ledger journals that digest without re-hashing the
// batch. One swapped batch refuses the whole sync point before anything
// installs.
func TestSyncPointRefusesSwappedDecision(t *testing.T) {
	sp, ahead := decidedAheadSyncPoint(t)
	record := ahead.Batch.Marshal(append([]byte(nil), ahead.Digest[:]...))
	at := bytes.Index(sp, record)
	if at < 0 {
		t.Fatal("decided record not found in the sync point")
	}
	swapped := &types.Batch{Txns: append([]types.Transaction(nil), ahead.Batch.Txns...)}
	swapped.Txns[0].Seq++ // same encoded length, different batch
	forged := append([]byte(nil), sp...)
	copy(forged[at+len(ahead.Digest):], swapped.Marshal(nil))

	_, reps2 := cluster(t, 4, decidedAheadConfig, simnet.Config{})
	fresh := reps2[0]
	before := fresh.ExecRound()
	if err := fresh.ValidateSyncPoint(forged); err == nil {
		t.Fatal("sync point with a swapped batch validated")
	}
	if err := fresh.InstallSyncPoint(forged); err == nil {
		t.Fatal("sync point with a swapped batch installed")
	}
	if fresh.ExecRound() != before || len(fresh.states[1].decided) != 0 {
		t.Fatalf("refused sync point mutated the replica: exec round %d (was %d), %d decided on instance 1",
			fresh.ExecRound(), before, len(fresh.states[1].decided))
	}
	if err := fresh.InstallSyncPoint(sp); err != nil {
		t.Fatalf("honest sync point refused after the forged one: %v", err)
	}
}

// decidedAheadConfig is the deployment decidedAheadSyncPoint runs.
var decidedAheadConfig = Config{BatchSize: 1, disableNoOpFill: true, ProgressTimeout: time.Hour}

// decidedAheadSyncPoint returns the sync point of a replica whose instance 1
// decided round 2 while the wave still waits on round 2 elsewhere, together
// with that decision.
func decidedAheadSyncPoint(t *testing.T) ([]byte, sm.Decision) {
	t.Helper()
	const n = 4
	net, reps := cluster(t, n, decidedAheadConfig, simnet.Config{})
	for c := types.ClientID(1); c <= 4; c++ {
		inject(net, n, mkTx(c, 1)) // round 1 on every instance
	}
	net.Run(net.Now() + 200*time.Millisecond)
	inject(net, n, mkTx(1, 2)) // round 2 on instance 1 alone: the wave waits
	net.Run(net.Now() + 200*time.Millisecond)
	src := reps[0]
	ahead, ok := src.states[1].decided[2]
	if src.ExecRound() != 2 || !ok {
		t.Fatalf("exec round %d, instance 1 decided round 2: %v; want a decided round the wave has not executed", src.ExecRound(), ok)
	}
	return src.SyncPoint(), ahead
}

var _ sm.StateSyncable = (*Replica)(nil)
