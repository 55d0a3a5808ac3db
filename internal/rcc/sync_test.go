package rcc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
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

// goldenFrontier sets a fresh replica's frontier by hand: the wave at round
// 5 with round 7 the highest decided, every inner instance delivered to
// round 5 with its chain value retained, recovery bookkeeping on instance 0,
// on instance 1 a decided-ahead round between an executed one and one with
// no batch (neither travels), an explicit assignment of clients 9 and 3, a
// pending switch of client 5, and delivered floors for clients 1, 7 and 2.
func goldenFrontier(t *testing.T) *Replica {
	t.Helper()
	_, reps := cluster(t, 4, Config{BatchSize: 1, Window: 4}, simnet.Config{})
	r := reps[0]
	inner := []byte{1}                              // pbft sync point tag
	inner = binary.BigEndian.AppendUint64(inner, 0) // view
	inner = binary.BigEndian.AppendUint64(inner, 5) // deliver
	inner = binary.BigEndian.AppendUint64(inner, 0) // stable checkpoint
	chain := types.Hash([]byte("inner chain at round 4"))
	inner = append(inner, chain[:]...)
	inner = binary.BigEndian.AppendUint32(inner, 0) // no dedup floors
	for _, st := range r.states {
		if err := st.inst.InstallSyncPoint(inner); err != nil {
			t.Fatal(err)
		}
	}
	r.execRound, r.maxDecided = 5, 7
	st := r.states[0]
	st.voidBelow, st.lastDec, st.stops, st.startedAt = 3, 6, 1, 2
	batch := func(seq uint64) *types.Batch { return &types.Batch{Txns: []types.Transaction{mkTx(2, seq)}} }
	executed, ahead := batch(4), batch(7)
	st = r.states[1]
	st.lastDec = 7
	st.decided[4] = sm.Decision{Instance: 1, Round: 4, Digest: executed.Digest(), Batch: executed}
	st.decided[6] = sm.Decision{Instance: 1, Round: 6, View: 2, Digest: ahead.Digest(), Batch: ahead, Signers: []types.ReplicaID{0, 2, 3}}
	st.decided[7] = sm.Decision{Instance: 1, Round: 7}
	r.assign[9], r.assign[3] = 2, 1
	r.switches[5] = &switchSched{from: 0, to: 3, activeAfter: 8}
	r.delivered[1], r.delivered[7], r.delivered[2] = 4, 2, 9
	return r
}

// TestSyncPointGolden pins the sync-point format: both forms of a frontier
// built by hand serialize to the hex bytes in testdata/syncpoint-*.hex, so a
// change to the writer cannot change what peers compare byte for byte
// without failing here.
func TestSyncPointGolden(t *testing.T) {
	r := goldenFrontier(t)
	for _, c := range []struct {
		name string
		got  []byte
	}{
		{"live", r.SyncPoint()},
		{"boundary", r.BoundarySyncPoint()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "syncpoint-"+c.name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(c.got); got != strings.TrimSpace(string(want)) {
			t.Errorf("%s sync point:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

var _ sm.StateSyncable = (*Replica)(nil)
