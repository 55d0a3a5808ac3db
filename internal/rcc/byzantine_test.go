package rcc

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// equivocator is a Byzantine replica: as primary of instance 1 it sends
// CONFLICTING proposals for the same round to different replicas (the
// classic equivocation attack), and otherwise stays silent. To the replica
// that saw the second proposal it adds its own COMMIT and a PREPARE and a
// COMMIT forged in replica 0's name: were forged votes counted, that
// replica would commit the second batch while replicas 0 and 2, which hold
// the first prepared, recover the first.
type equivocator struct {
	env   sm.Env
	round types.Round
}

func (e *equivocator) Start(env sm.Env) { e.env = env }

func (e *equivocator) OnMessage(from sm.Source, m types.Message) {
	req, ok := m.(*types.ClientRequest)
	if !ok || !from.IsClient {
		return
	}
	e.round++
	b1 := &types.Batch{Txns: []types.Transaction{req.Txns[0]}}
	alt := req.Txns[0]
	alt.Op = append([]byte("evil-"), alt.Op...)
	b2 := &types.Batch{Txns: []types.Transaction{alt}}

	pp1 := &types.PrePrepare{View: 0, Round: e.round, Digest: b1.Digest(), Batch: b1}
	pp1.Inst = 1
	pp2 := &types.PrePrepare{View: 0, Round: e.round, Digest: b2.Digest(), Batch: b2}
	pp2.Inst = 1
	// Half the replicas see one proposal, half the other.
	n := e.env.Params().N
	for r := 0; r < n; r++ {
		if r == int(e.env.ID()) {
			continue
		}
		if r%2 == 0 {
			e.env.Send(types.ReplicaID(r), pp1)
			continue
		}
		e.env.Send(types.ReplicaID(r), pp2)
		e.env.Send(types.ReplicaID(r), types.NewCommit(1, e.env.ID(), 0, e.round, pp2.Digest))
		e.env.Send(types.ReplicaID(r), types.NewPrepare(1, 0, 0, e.round, pp2.Digest))
		e.env.Send(types.ReplicaID(r), types.NewCommit(1, 0, 0, e.round, pp2.Digest))
	}
}

func (e *equivocator) OnTimer(sm.TimerID) {}

func TestEquivocatingPrimaryIsStoppedAndOthersAgree(t *testing.T) {
	n := 4
	net, err := simnet.New(simnet.Config{N: n, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		if i == 1 {
			net.SetMachine(1, &equivocator{})
			continue
		}
		reps[i] = New(Config{
			BatchSize:       1,
			Window:          4,
			ProgressTimeout: 100 * time.Millisecond,
			RecoveryTimeout: 300 * time.Millisecond,
		})
		net.SetMachine(types.ReplicaID(i), reps[i])
	}
	net.Start()

	// Demand for every instance, including the equivocator's.
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			tx := types.Transaction{Client: c, Seq: s, Op: []byte{byte(c), byte(s)}}
			req := types.NewClientRequest(0, tx)
			at := time.Duration(s) * 20 * time.Millisecond
			for r := 0; r < n; r++ {
				node := net.Node(types.ReplicaID(r))
				net.Schedule(at, func() { node.Machine().OnMessage(sm.FromClient(tx.Client), req) })
			}
		}
	}
	net.Run(10 * time.Second)

	honest := []int{0, 2, 3}
	for _, i := range honest {
		st := reps[i].Status(1)
		if st.Stops == 0 {
			t.Fatalf("replica %d never stopped the equivocating instance: %+v", i, st)
		}
		// Wait-free progress: healthy instances' transactions executed.
		count := 0
		for _, d := range net.Node(types.ReplicaID(i)).Decisions() {
			if d.Batch == nil {
				continue
			}
			for _, tx := range d.Batch.Txns {
				if !tx.IsNoOp() && tx.Client != 1 {
					count++
				}
			}
		}
		if count < 9 {
			t.Fatalf("replica %d executed only %d healthy-instance txns, want 9", i, count)
		}
	}
	// No honest replica may have delivered BOTH conflicting payloads, and
	// all must agree on what instance 1 delivered (possibly nothing).
	ref := instance1Payloads(net, 0)
	for _, i := range honest[1:] {
		got := instance1Payloads(net, types.ReplicaID(i))
		if len(got) != len(ref) {
			t.Fatalf("replica %d delivered %d instance-1 batches, replica 0 delivered %d", i, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("replica %d diverges from replica 0 on instance-1 delivery %d", i, j)
			}
		}
	}
}

func instance1Payloads(net *simnet.Network, id types.ReplicaID) []types.Digest {
	var out []types.Digest
	for _, d := range net.Node(id).Decisions() {
		if d.Instance == 1 {
			out = append(out, d.Digest)
		}
	}
	return out
}

// slowPrimary throttles: it proposes, but only after a long artificial
// delay — slow enough to starve its instance, fast enough to dodge naive
// progress timeouts. σ-lag detection (§IV) must catch it.
func TestThrottlingPrimaryCaughtBySigma(t *testing.T) {
	n := 4
	net, err := simnet.New(simnet.Config{N: n, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		reps[i] = New(Config{
			BatchSize:       1,
			Window:          8,
			sigma:           3,
			ProgressTimeout: time.Hour, // timeouts alone must not catch it
			RecoveryTimeout: 300 * time.Millisecond,
		})
		net.SetMachine(types.ReplicaID(i), reps[i])
	}
	net.Start()
	// The "throttled" instance is simulated by dropping its primary's
	// proposals: instance 1 falls behind while 0, 2, 3 advance.
	// (A real throttler would propose at a crawl; the lag signature that
	// σ-detection keys on is identical.)
	net.Crash(1)
	for s := uint64(1); s <= 8; s++ {
		for _, c := range []types.ClientID{2, 3, 4} {
			tx := types.Transaction{Client: c, Seq: s, Op: []byte{byte(c), byte(s)}}
			req := types.NewClientRequest(0, tx)
			at := time.Duration(s) * 20 * time.Millisecond
			for r := 0; r < n; r++ {
				node := net.Node(types.ReplicaID(r))
				net.Schedule(at, func() { node.Machine().OnMessage(sm.FromClient(tx.Client), req) })
			}
		}
	}
	net.Run(15 * time.Second)
	st := reps[0].Status(1)
	if st.Stops == 0 && !st.Suspected {
		t.Fatalf("σ=3 lag detection never fired: %+v", st)
	}
}

// byzantine wraps an honest replica that also runs attack once, at its
// first client request.
type byzantine struct {
	*Replica
	env    sm.Env
	attack func(env sm.Env)
}

func (b *byzantine) Start(env sm.Env) {
	b.env = env
	b.Replica.Start(env)
}

func (b *byzantine) OnMessage(from sm.Source, m types.Message) {
	if _, ok := m.(*types.ClientRequest); ok && b.attack != nil {
		b.attack(b.env)
		b.attack = nil
	}
	b.Replica.OnMessage(from, m)
}

// runByzantine runs four replicas, replica bad wrapped with attack, under
// traffic for every instance, and returns the honest replicas.
func runByzantine(t *testing.T, bad types.ReplicaID, attack func(env sm.Env)) (*simnet.Network, map[types.ReplicaID]*Replica) {
	t.Helper()
	const n = 4
	net, err := simnet.New(simnet.Config{N: n, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	honest := make(map[types.ReplicaID]*Replica)
	for i := types.ReplicaID(0); i < n; i++ {
		r := New(Config{
			BatchSize:       1,
			Window:          4,
			ProgressTimeout: 100 * time.Millisecond,
			RecoveryTimeout: 300 * time.Millisecond,
		})
		if i == bad {
			net.SetMachine(i, &byzantine{Replica: r, attack: attack})
			continue
		}
		honest[i] = r
		net.SetMachine(i, r)
	}
	net.Start()
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= n; c++ {
			injectAt(net, n, time.Duration(s)*20*time.Millisecond, mkTx(c, s))
		}
	}
	net.Run(5 * time.Second)
	return net, honest
}

// TestForgedFailuresStopNothing: one replica broadcasts nf FAILUREs for
// the healthy instance 0 in the names of replicas 0, 1 and 2. Counted,
// they would confirm a failure nobody else saw and stop instance 0.
func TestForgedFailuresStopNothing(t *testing.T) {
	net, honest := runByzantine(t, 3, func(env sm.Env) {
		for r := types.ReplicaID(0); r < 3; r++ {
			f := &types.Failure{Header: types.Header{Inst: 0}, Replica: r, Round: 1}
			env.Broadcast(f)
		}
	})
	for id, r := range honest {
		if st := r.Status(0); st.Stops != 0 || st.Suspected || st.Failures != 0 {
			t.Fatalf("replica %d acted on forged FAILUREs: %+v", id, st)
		}
		if got := len(realTxns(net.Node(id).Decisions())); got != 12 {
			t.Fatalf("replica %d executed %d transactions, want 12", id, got)
		}
	}
}

// TestStopWithDuplicatedEvidenceRefused: replica 1, coordinating leader of
// instance 0, gets its coordinator to decide stop(0; E) whose E is one
// FAILURE nf times. A stop needs nf distinct senders, so no replica voids
// or skips a round of instance 0.
func TestStopWithDuplicatedEvidenceRefused(t *testing.T) {
	net, honest := runByzantine(t, 1, func(env sm.Env) {
		f := &types.Failure{Header: types.Header{Inst: 0}, Replica: env.ID(), Round: 1}
		stop := &types.Stop{Header: types.Header{Inst: types.CoordInstance(0)}, Target: 0, Evidence: []*types.Failure{f, f, f}}
		op, err := types.MarshalMessage(stop)
		if err != nil {
			t.Fatal(err)
		}
		b := &types.Batch{Txns: []types.Transaction{{Seq: 1, Op: op}}}
		pp := &types.PrePrepare{Header: types.Header{Inst: types.CoordInstance(0)}, Round: 1, Digest: b.Digest(), Batch: b}
		for r := types.ReplicaID(0); r < 4; r++ {
			if r != env.ID() {
				env.Send(r, pp)
			}
		}
	})
	for id, r := range honest {
		if st := r.Status(0); st.Stops != 0 || st.VoidBelow != 0 {
			t.Fatalf("replica %d applied a stop with duplicated evidence: %+v", id, st)
		}
		if got := len(realTxns(net.Node(id).Decisions())); got != 12 {
			t.Fatalf("replica %d executed %d transactions, want 12", id, got)
		}
	}
}
