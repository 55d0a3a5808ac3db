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
// classic equivocation attack), and otherwise stays silent.
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
		} else {
			e.env.Send(types.ReplicaID(r), pp2)
		}
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
			Sigma:           3,
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
