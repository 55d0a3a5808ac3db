package rcc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sbft"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
	"repro/internal/zyzzyva"
)

// cluster builds an n-replica simnet running RCC.
func cluster(t *testing.T, n int, cfg Config, netcfg simnet.Config) (*simnet.Network, []*Replica) {
	t.Helper()
	netcfg.N = n
	if netcfg.Latency == 0 {
		netcfg.Latency = time.Millisecond
	}
	net, err := simnet.New(netcfg)
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		reps[i] = New(cfg)
		net.SetMachine(types.ReplicaID(i), reps[i])
	}
	net.Start()
	return net, reps
}

// inject broadcasts a client request to all replicas at the current time.
func inject(net *simnet.Network, n int, tx types.Transaction) {
	req := types.NewClientRequest(0, tx)
	for i := 0; i < n; i++ {
		node := net.Node(types.ReplicaID(i))
		net.Schedule(net.Now(), func() {
			if node.Machine() != nil {
				node.Machine().OnMessage(sm.FromClient(tx.Client), req)
			}
		})
	}
}

// injectAt broadcasts a client request at virtual time at.
func injectAt(net *simnet.Network, n int, at time.Duration, tx types.Transaction) {
	req := types.NewClientRequest(0, tx)
	for i := 0; i < n; i++ {
		node := net.Node(types.ReplicaID(i))
		net.Schedule(at, func() {
			if node.Machine() != nil {
				node.Machine().OnMessage(sm.FromClient(tx.Client), req)
			}
		})
	}
}

func mkTx(c types.ClientID, seq uint64) types.Transaction {
	return types.Transaction{Client: c, Seq: seq, Op: []byte(fmt.Sprintf("op-%d-%d", c, seq))}
}

// realTxns flattens the non-noop transactions of delivered decisions.
func realTxns(ds []sm.Decision) []types.Transaction {
	var out []types.Transaction
	for _, d := range ds {
		if d.Batch == nil {
			continue
		}
		for _, tx := range d.Batch.Txns {
			if !tx.IsNoOp() {
				out = append(out, tx)
			}
		}
	}
	return out
}

// sameOrder asserts all replicas in ids delivered identical sequences.
func sameOrder(t *testing.T, net *simnet.Network, ids []types.ReplicaID) {
	t.Helper()
	ref := net.Node(ids[0]).Decisions()
	for _, id := range ids[1:] {
		ds := net.Node(id).Decisions()
		limit := len(ref)
		if len(ds) < limit {
			limit = len(ds)
		}
		for j := 0; j < limit; j++ {
			if ds[j].Digest != ref[j].Digest || ds[j].Instance != ref[j].Instance || ds[j].Round != ref[j].Round {
				t.Fatalf("replica %d delivery %d = (inst %d, round %d, %v); replica %d has (inst %d, round %d, %v)",
					id, j, ds[j].Instance, ds[j].Round, ds[j].Digest,
					ids[0], ref[j].Instance, ref[j].Round, ref[j].Digest)
			}
		}
	}
}

func allIDs(n int) []types.ReplicaID {
	out := make([]types.ReplicaID, n)
	for i := range out {
		out[i] = types.ReplicaID(i)
	}
	return out
}

func TestHappyPathConcurrentInstances(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{BatchSize: 1, Window: 4}, simnet.Config{})
	// One client per instance: clients 0..3 map to instances 0..3.
	for c := types.ClientID(0); c < 4; c++ {
		inject(net, n, mkTx(c+1, 1)) // client IDs 1..4 -> instances 1,2,3,0
	}
	net.Run(3 * time.Second)

	for i := 0; i < n; i++ {
		if got := reps[i].RoundsExecuted(); got < 1 {
			t.Fatalf("replica %d executed %d rounds, want >= 1", i, got)
		}
		txns := realTxns(net.Node(types.ReplicaID(i)).Decisions())
		if len(txns) != 4 {
			t.Fatalf("replica %d delivered %d real txns, want 4", i, len(txns))
		}
	}
	sameOrder(t, net, allIDs(n))
}

func TestRoundCompletionRequiresAllInstances(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{BatchSize: 1, DisableNoOpFill: true, ProgressTimeout: time.Hour}, simnet.Config{})
	// Only client 1 (instance 1) submits: without no-op fill the round
	// can never complete.
	inject(net, n, mkTx(1, 1))
	net.Run(2 * time.Second)
	for i := 0; i < n; i++ {
		if got := reps[i].RoundsExecuted(); got != 0 {
			t.Fatalf("replica %d executed %d rounds without all instances deciding", i, got)
		}
	}
}

func TestNoOpFillCompletesRounds(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{BatchSize: 1}, simnet.Config{})
	// Only one client submits; the other instances must fill with no-ops
	// (§III-E) so the round executes.
	inject(net, n, mkTx(1, 1))
	net.Run(3 * time.Second)
	for i := 0; i < n; i++ {
		if got := reps[i].RoundsExecuted(); got < 1 {
			t.Fatalf("replica %d executed %d rounds, want >= 1 (no-op fill)", i, got)
		}
		txns := realTxns(net.Node(types.ReplicaID(i)).Decisions())
		if len(txns) != 1 {
			t.Fatalf("replica %d delivered %d real txns, want 1", i, len(txns))
		}
	}
	if reps[0].NoOpsProposed()+reps[2].NoOpsProposed()+reps[3].NoOpsProposed() == 0 {
		t.Fatalf("no replica proposed no-op fillers")
	}
	sameOrder(t, net, allIDs(n))
}

// TestPartialBatchJoinsDecidedRound pins that a primary holding fewer
// requests than a batch proposes them once another instance decided the
// round it proposes next, instead of waiting out the 50 ms batch timeout:
// an instance left one round behind would otherwise stay behind under even
// load, and every request of the instances ahead would wait a batch fill.
// It holds for every BCA RCC runs: RCC-P, RCC-Z and RCC-S.
func TestPartialBatchJoinsDecidedRound(t *testing.T) {
	for _, c := range []struct {
		name string
		inst Factory
	}{
		{"pbft", PBFTFactory()},
		{"zyzzyva", func(ic InstanceConfig) sm.Instance {
			return zyzzyva.New(zyzzyva.Config{Instance: ic.Instance, Primary: ic.Primary,
				Window: ic.Window, BatchSize: ic.BatchSize, ProgressTimeout: ic.ProgressTimeout})
		}},
		{"sbft", func(ic InstanceConfig) sm.Instance {
			return sbft.New(sbft.Config{Instance: ic.Instance, Primary: ic.Primary,
				Window: ic.Window, BatchSize: ic.BatchSize, ProgressTimeout: ic.ProgressTimeout})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := 4
			net, _ := cluster(t, n, Config{BatchSize: 4, NewInstance: c.inst}, simnet.Config{})
			for s := uint64(1); s <= 4; s++ {
				inject(net, n, mkTx(1, s)) // a full batch on instance 1
			}
			inject(net, n, mkTx(2, 1)) // one request short of a batch on instance 2
			net.Run(25 * time.Millisecond)
			for i := 0; i < n; i++ {
				if txns := realTxns(net.Node(types.ReplicaID(i)).Decisions()); len(txns) != 5 {
					t.Fatalf("replica %d delivered %d real txns by 25ms, want 5", i, len(txns))
				}
			}
			sameOrder(t, net, allIDs(n))
		})
	}
}

func TestSustainedThroughputAllInstances(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{BatchSize: 1, Window: 8}, simnet.Config{Jitter: 2 * time.Millisecond, Seed: 3})
	// Four clients, ten requests each, spread over time.
	for s := uint64(1); s <= 10; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			injectAt(net, n, time.Duration(s)*20*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(10 * time.Second)
	for i := 0; i < n; i++ {
		txns := realTxns(net.Node(types.ReplicaID(i)).Decisions())
		if len(txns) != 40 {
			t.Fatalf("replica %d delivered %d real txns, want 40", i, len(txns))
		}
		if reps[i].RoundsExecuted() < 10 {
			t.Fatalf("replica %d executed only %d rounds", i, reps[i].RoundsExecuted())
		}
	}
	sameOrder(t, net, allIDs(n))
}

func TestRecoveryAfterPrimaryCrash(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		Window:          4,
		ProgressTimeout: 100 * time.Millisecond,
		RecoveryTimeout: 300 * time.Millisecond,
	}, simnet.Config{})

	// Warm up: all instances decide a few rounds.
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			injectAt(net, n, time.Duration(s)*10*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(2 * time.Second)

	// Crash replica 1 (primary of instance 1). Its clients' new requests
	// go unserved -> backups detect failure -> FAILURE -> stop(1;E).
	net.Crash(1)
	for s := uint64(4); s <= 6; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			injectAt(net, n, net.Now()+time.Duration(s)*10*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(net.Now() + 10*time.Second)

	live := []types.ReplicaID{0, 2, 3}
	for _, id := range live {
		rep := reps[id]
		st := rep.states[1]
		if st.stops == 0 {
			t.Fatalf("replica %d never accepted a stop for instance 1", id)
		}
		if rep.RoundsExecuted() < 4 {
			t.Fatalf("replica %d executed only %d rounds after recovery", id, rep.RoundsExecuted())
		}
		// Other instances must have kept committing (wait-free D4/D5):
		// clients 2,3,4 -> instances 2,3,0 got requests 4..6.
		txns := realTxns(net.Node(id).Decisions())
		for c := types.ClientID(2); c <= 4; c++ {
			count := 0
			for _, tx := range txns {
				if tx.Client == c {
					count++
				}
			}
			if count < 6 {
				t.Fatalf("replica %d delivered %d txns of client %d, want 6 (wait-free progress)", id, count, c)
			}
		}
	}
	sameOrder(t, net, live)
}

func TestRecoveryPreservesAcceptedProposals(t *testing.T) {
	n := 4
	// Drop instance-1 proposals to replica 0 only near the failure:
	// replicas 2,3 accept round proposals that 0 misses; after recovery
	// from stop evidence all live replicas must agree on them.
	var blocking bool
	netcfg := simnet.Config{
		Drop: func(from, to types.ReplicaID, m types.Message) bool {
			return blocking && from == 1 && to == 0 && m.Instance() == 1 &&
				(m.Type() == types.MsgPrePrepare)
		},
	}
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		ProgressTimeout: 100 * time.Millisecond,
		RecoveryTimeout: 300 * time.Millisecond,
	}, netcfg)
	// One full round for everyone.
	for c := types.ClientID(1); c <= 4; c++ {
		inject(net, n, mkTx(c, 1))
	}
	net.Run(time.Second)
	// Now partially deliver one more instance-1 proposal, then crash P1.
	blocking = true
	inject(net, n, mkTx(1, 2)) // client 1 -> instance 1
	net.Schedule(net.Now()+150*time.Millisecond, func() { net.Crash(1) })
	net.Run(net.Now() + 8*time.Second)

	live := []types.ReplicaID{0, 2, 3}
	// Replicas 2,3 accepted ⟨c1,2⟩ before the crash. Replica 0 was kept in
	// the dark (only one affected replica, so no confirmed failure forms —
	// §III-D); it must learn the proposal through the dynamic checkpoint
	// the finished replicas answer its FAILURE claim with, and all live
	// replicas must deliver it exactly once.
	counts := make(map[types.ReplicaID]int)
	for _, id := range live {
		for _, tx := range realTxns(net.Node(id).Decisions()) {
			if tx.Client == 1 && tx.Seq == 2 {
				counts[id]++
			}
		}
	}
	for _, id := range live {
		if counts[id] != 1 {
			t.Fatalf("delivery of recovered proposal: %v, want exactly once everywhere", counts)
		}
	}
	// No stop may have been accepted: one in-the-dark replica is below the
	// f+1 detection threshold, and the checkpoint resolves its suspicion.
	for _, id := range live {
		if got := reps[id].states[1].stops; got != 0 {
			t.Fatalf("replica %d accepted %d stops; in-the-dark recovery must not stop the instance", id, got)
		}
	}
	sameOrder(t, net, live)
}

func TestExponentialRestartPenalty(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		ProgressTimeout: 80 * time.Millisecond,
		RecoveryTimeout: 250 * time.Millisecond,
	}, simnet.Config{})
	// Byzantine-ish: primary of instance 1 stays silent forever (crash),
	// but the network keeps trying to use it: two detection cycles.
	net.Crash(1)
	inject(net, n, mkTx(1, 1))
	net.Run(5 * time.Second)

	st := reps[0].states[1]
	if st.stops < 1 {
		t.Fatalf("no stop accepted for the silent instance")
	}
	first := st.startedAt
	if first < 2 {
		t.Fatalf("restart round %d, want >= 2 (penalty 2^1)", first)
	}
	// Trigger a second failure cycle: the instance resumed (primary
	// still dead), clients demand service again.
	inject(net, n, mkTx(1, 2))
	net.Run(net.Now() + 10*time.Second)
	if st.stops >= 2 {
		// The penalty doubles: resume_k = last + 2^k, so with the same
		// last-accepted round the second restart lands strictly later.
		second := st.startedAt
		if second <= first {
			t.Fatalf("second restart round %d not after first %d (penalty did not grow)", second, first)
		}
		if second-first < 2 {
			t.Fatalf("penalty growth %d rounds, want >= 2 (2^2-2^1)", second-first)
		}
	}
}

func TestInTheDarkAttackRecoversViaDynamicCheckpoint(t *testing.T) {
	n := 4
	// Malicious primary of instance 1 keeps replica 3 in the dark: it
	// sends instance-1 proposals to replicas 0,1,2 only. nf-f = 2
	// failure claims cannot confirm (nf=3), so recovery cannot stop the
	// instance; replica 3 must catch up via the dynamic checkpoint.
	netcfg := simnet.Config{
		Drop: func(from, to types.ReplicaID, m types.Message) bool {
			return from == 1 && to == 3 && m.Instance() == 1 && m.Type() == types.MsgPrePrepare
		},
	}
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		Window:          4,
		ProgressTimeout: 100 * time.Millisecond,
		RecoveryTimeout: 300 * time.Millisecond,
	}, netcfg)
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			injectAt(net, n, time.Duration(s)*10*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(10 * time.Second)

	// Replica 3 must have executed rounds despite being kept in the dark.
	if got := reps[3].RoundsExecuted(); got < 1 {
		t.Fatalf("in-the-dark replica executed %d rounds, want >= 1", got)
	}
	found := 0
	for _, tx := range realTxns(net.Node(3).Decisions()) {
		if tx.Client == 1 {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("in-the-dark replica never learned instance-1 transactions")
	}
}

func TestThrottlingDetectionSigma(t *testing.T) {
	n := 4
	// The primary of instance 1 throttles: its proposals are delayed far
	// beyond the others by dropping and never re-proposing. Simplest
	// model: it just never proposes (crash), but with a huge progress
	// timeout only σ-lag detection can catch it.
	net, reps := cluster(t, n, Config{
		BatchSize:       1,
		Window:          8,
		Sigma:           4,
		ProgressTimeout: time.Hour, // disable timeout-based detection
		RecoveryTimeout: 300 * time.Millisecond,
	}, simnet.Config{})
	net.Crash(1)
	// Drive the other instances well past σ rounds.
	for s := uint64(1); s <= 10; s++ {
		for _, c := range []types.ClientID{2, 3, 4} {
			injectAt(net, n, time.Duration(s)*20*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(15 * time.Second)
	st := reps[0].states[1]
	if st.stops == 0 && !st.suspected {
		t.Fatalf("lagging instance was never suspected despite σ=4")
	}
}

func TestSwitchInstanceReassignsClient(t *testing.T) {
	n := 4
	net, reps := cluster(t, n, Config{
		BatchSize: 1,
		Sigma:     2,
	}, simnet.Config{})
	// Client 1 is served by instance 1. Ask to switch to instance 2.
	sw := &types.SwitchInstance{Client: 1, To: 2}
	sw.Inst = 1
	for i := 0; i < n; i++ {
		node := net.Node(types.ReplicaID(i))
		net.Schedule(0, func() { node.Machine().OnMessage(sm.FromClient(1), sw) })
	}
	// Drive rounds forward so the switch schedule matures.
	for s := uint64(1); s <= 8; s++ {
		for _, c := range []types.ClientID{2, 3, 4} {
			injectAt(net, n, time.Duration(s)*20*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(5 * time.Second)
	// Now the client's transactions must be served by instance 2.
	inject(net, n, mkTx(1, 1))
	net.Run(net.Now() + 3*time.Second)

	for i := 0; i < n; i++ {
		if got := reps[i].Assignment(1); got != 2 {
			t.Fatalf("replica %d assignment(client 1) = instance %d, want 2", i, got)
		}
	}
	// The transaction must have been delivered by instance 2.
	for _, d := range net.Node(0).Decisions() {
		if d.Batch == nil {
			continue
		}
		for _, tx := range d.Batch.Txns {
			if tx.Client == 1 && tx.Seq == 1 && d.Instance != 2 {
				t.Fatalf("client-1 txn delivered by instance %d, want 2", d.Instance)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		n := 4
		net, reps := cluster(t, n, Config{BatchSize: 1, Window: 4},
			simnet.Config{Jitter: 2 * time.Millisecond, Seed: 99})
		for s := uint64(1); s <= 5; s++ {
			for c := types.ClientID(1); c <= 4; c++ {
				injectAt(net, n, time.Duration(s)*15*time.Millisecond, mkTx(c, s))
			}
		}
		net.Run(5 * time.Second)
		return net.MessagesSent(), net.BytesSent(), reps[0].RoundsExecuted()
	}
	m1, b1, r1 := run()
	m2, b2, r2 := run()
	if m1 != m2 || b1 != b2 || r1 != r2 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", m1, b1, r1, m2, b2, r2)
	}
}

func TestUnpredictableOrderingConsistentAcrossReplicas(t *testing.T) {
	n := 4
	net, _ := cluster(t, n, Config{BatchSize: 1, UnpredictableOrdering: true}, simnet.Config{})
	for s := uint64(1); s <= 5; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			injectAt(net, n, time.Duration(s)*15*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(5 * time.Second)
	sameOrder(t, net, allIDs(n))
	// With permutation ordering on, at least one round should deviate
	// from the identity instance order 0,1,2,3 (overwhelmingly likely
	// over 5 rounds: P[identity]=1/24 per round).
	ds := net.Node(0).Decisions()
	deviated := false
	for i := 0; i+4 <= len(ds); i += 4 {
		if ds[i].Instance != 0 || ds[i+1].Instance != 1 || ds[i+2].Instance != 2 || ds[i+3].Instance != 3 {
			deviated = true
		}
	}
	if !deviated {
		t.Fatalf("permutation ordering never deviated from identity over %d rounds", len(ds)/4)
	}
}

func TestStopWireRoundTrip(t *testing.T) {
	b := &types.Batch{Txns: []types.Transaction{mkTx(3, 9)}}
	f1 := &types.Failure{Replica: 2, Round: 17, State: []types.AcceptedProposal{
		{Round: 15, View: 0, Digest: b.Digest(), Batch: b, Prepared: true},
		{Round: 16, View: 1, Digest: types.Hash([]byte("x")), Batch: nil},
	}}
	f1.Inst = 5
	f2 := &types.Failure{Replica: 0, Round: 17}
	f2.Inst = 5
	enc := encodeStop(5, []*types.Failure{f1, f2})
	target, ev, err := decodeStop(enc)
	if err != nil {
		t.Fatalf("decodeStop: %v", err)
	}
	if target != 5 || len(ev) != 2 {
		t.Fatalf("target=%d evidence=%d, want 5,2", target, len(ev))
	}
	if ev[0].Replica != 2 || ev[0].Round != 17 || len(ev[0].State) != 2 {
		t.Fatalf("evidence[0] mismatch: %+v", ev[0])
	}
	if ev[0].State[0].Batch == nil || ev[0].State[0].Batch.Digest() != b.Digest() {
		t.Fatalf("batch did not round-trip")
	}
	if !ev[0].State[0].Prepared || ev[0].State[1].Prepared {
		t.Fatalf("prepared flags did not round-trip")
	}
}

func TestSwitchWireRoundTrip(t *testing.T) {
	enc := encodeSwitch(12345, 7)
	c, to, err := decodeSwitch(enc)
	if err != nil || c != 12345 || to != 7 {
		t.Fatalf("switch round-trip: c=%d to=%d err=%v", c, to, err)
	}
	if _, _, err := decodeSwitch([]byte{opStop, 0}); err == nil {
		t.Fatalf("decodeSwitch accepted a stop payload")
	}
}

func TestFewerInstancesThanReplicas(t *testing.T) {
	// RCC_3 configuration from the paper: m=3 instances on n=7 replicas.
	n := 7
	net, reps := cluster(t, n, Config{M: 3, BatchSize: 1}, simnet.Config{})
	for c := types.ClientID(1); c <= 3; c++ {
		inject(net, n, mkTx(c, 1))
	}
	net.Run(3 * time.Second)
	if reps[0].M() != 3 {
		t.Fatalf("M() = %d, want 3", reps[0].M())
	}
	for i := 0; i < n; i++ {
		if reps[i].RoundsExecuted() < 1 {
			t.Fatalf("replica %d executed no rounds with m=3", i)
		}
	}
	// Replicas 3..6 lead no instance.
	if _, ok := reps[4].OwnInstance(); ok {
		t.Fatalf("replica 4 claims an instance with m=3")
	}
	sameOrder(t, net, allIDs(n))
}
