package zyzzyva

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// cluster builds an n-replica simnet running one Zyzzyva instance whose
// primary is replica 0.
func cluster(t *testing.T, n int, cfg Config, netcfg simnet.Config) (*simnet.Network, []*Instance) {
	t.Helper()
	netcfg.N = n
	if netcfg.Latency == 0 {
		netcfg.Latency = time.Millisecond
	}
	net, err := simnet.New(netcfg)
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	insts := make([]*Instance, n)
	for i := 0; i < n; i++ {
		insts[i] = New(cfg)
		net.SetMachine(types.ReplicaID(i), insts[i])
	}
	return net, insts
}

func addClient(net *simnet.Network, id types.ClientID, txns int) *client.Client {
	c := client.New(client.Config{
		Client:       id,
		RetryTimeout: 120 * time.Millisecond,
		Broadcast:    true,
	})
	for s := uint64(1); s <= uint64(txns); s++ {
		c.Submit(types.Transaction{Client: id, Seq: s, Op: []byte(fmt.Sprintf("op-%d-%d", id, s))})
	}
	net.AddClient(id, c)
	return c
}

// TestDeliveryOrderConsistent checks the replica side under jitter: every
// replica delivers every client transaction, in the same rounds. The bare
// instance sends no client replies (the runtime does, after execution), so
// the clients pipeline everything at once.
func TestDeliveryOrderConsistent(t *testing.T) {
	net, _ := cluster(t, 4, Config{BatchSize: 1, Window: 4}, simnet.Config{Jitter: 2 * time.Millisecond, Seed: 7})
	addClient(net, 1, 5).SetWindow(5)
	addClient(net, 2, 5).SetWindow(5)
	net.Start()
	net.Run(5 * time.Second)
	ref := net.Node(0).Decisions()
	total := 0
	for _, d := range ref {
		total += d.Batch.Len()
	}
	if total != 10 {
		t.Fatalf("replica 0 delivered %d transactions, want 10", total)
	}
	for id := 1; id < 4; id++ {
		ds := net.Node(types.ReplicaID(id)).Decisions()
		if len(ds) != len(ref) {
			t.Fatalf("replica %d delivered %d rounds, replica 0 %d", id, len(ds), len(ref))
		}
		for j := range ds {
			if ds[j].Digest != ref[j].Digest || ds[j].Round != ref[j].Round {
				t.Fatalf("replica %d delivery %d diverges", id, j)
			}
		}
	}
}

func TestEquivocationDetectedInRCCMode(t *testing.T) {
	// Conflicting order requests for the same round must be reported
	// through Env.Suspect.
	net, insts := cluster(t, 4, Config{BatchSize: 1}, simnet.Config{})
	net.Start()

	b1 := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 1, Op: []byte("x")}}}
	b2 := &types.Batch{Txns: []types.Transaction{{Client: 2, Seq: 1, Op: []byte("y")}}}
	or1 := &types.OrderRequest{View: 0, Round: 1, Digest: b1.Digest(), Batch: b1}
	or2 := &types.OrderRequest{View: 0, Round: 1, Digest: b2.Digest(), Batch: b2}
	h1 := historyStep(types.ZeroDigest, b1.Digest())
	or1.History = h1
	or2.History = historyStep(types.ZeroDigest, b2.Digest())

	insts[1].OnMessage(sm.FromReplica(0), or1)
	insts[1].OnMessage(sm.FromReplica(0), or2)
	if len(net.Node(1).Suspicions()) == 0 {
		t.Fatal("equivocation not reported via Suspect")
	}
}

func TestHistoryChainIsDeterministic(t *testing.T) {
	d1 := types.Hash([]byte("a"))
	d2 := types.Hash([]byte("b"))
	h1 := historyStep(historyStep(types.ZeroDigest, d1), d2)
	h2 := historyStep(historyStep(types.ZeroDigest, d1), d2)
	if h1 != h2 {
		t.Fatal("history chain not deterministic")
	}
	if historyStep(types.ZeroDigest, d1) == historyStep(types.ZeroDigest, d2) {
		t.Fatal("history chain ignores digest")
	}
}

// TestSilentPrimarySuspected: with the primary crashed, every backup that
// queued a client request reports the instance through Env.Suspect once
// ProgressTimeout passes without delivery. This timer is the only failure
// path for a primary that says nothing.
func TestSilentPrimarySuspected(t *testing.T) {
	const timeout = 100 * time.Millisecond
	net, _ := cluster(t, 4, Config{BatchSize: 1, ProgressTimeout: timeout}, simnet.Config{})
	addClient(net, 1, 1)
	net.Crash(0)
	net.Start()
	net.Run(timeout + 20*time.Millisecond)
	for id := 1; id < 4; id++ {
		ss := net.Node(types.ReplicaID(id)).Suspicions()
		if len(ss) == 0 {
			t.Fatalf("backup %d never suspected the silent primary", id)
		}
		if at := ss[0].At; at < timeout || at > timeout+5*time.Millisecond {
			t.Fatalf("backup %d suspected at %v, want once ProgressTimeout (%v) after the request arrived", id, at, timeout)
		}
	}
}
