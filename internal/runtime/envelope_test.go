package runtime

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/ledger"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// requestVerifies counts the client-party tags an authenticator verifies.
// It hides the inner scheme's batch interface, so every verify goes through
// Verify and is counted.
type requestVerifies struct {
	crypto.Authenticator
	n atomic.Int64
}

func (a *requestVerifies) Verify(from uint32, payload, tag []byte) bool {
	if from >= crypto.ClientPartyID(0) {
		a.n.Add(1)
	}
	return a.Authenticator.Verify(from, payload, tag)
}

// TestRequestEnvelopeOverTCP: a client with a deep window sends what it puts
// in flight between two inbox drains as one request, so under ED25519 each
// replica verifies fewer request tags than the transactions it executes —
// and every transaction still completes on agreeing ledgers.
func TestRequestEnvelopeOverTCP(t *testing.T) {
	const secret, txns, window = "envelope-ds", 256, 64
	counters := make(map[uint32]*requestVerifies)
	opts := tcpAuthOpts{auth: func(p uint32) crypto.Authenticator {
		a := &requestVerifies{Authenticator: crypto.NewDSDev(p, []byte(secret))}
		counters[p] = a
		return a
	}}
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, opts, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 16, Window: 4})
	})

	mach := client.New(client.Config{Client: 1, Broadcast: true, RetryTimeout: 2 * time.Second})
	mach.SetWindow(window)
	for _, tx := range disjointWrites(1, 100, txns) {
		mach.Submit(tx)
	}
	proc := NewClient(1, params, mach)
	tcp, err := transport.NewTCP(transport.TCPConfig{
		IsClient: true, SelfClient: 1, Peers: peers,
		Auth: crypto.NewDSDev(crypto.ClientPartyID(1), []byte(secret)),
	}, proc)
	if err != nil {
		t.Fatal(err)
	}
	proc.Attach(tcp)
	proc.Run()
	t.Cleanup(proc.Stop)

	waitFor(t, 60*time.Second, func() bool { return len(mach.Completions()) == txns })
	assertLedgersAgree(t, reps)
	for i, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Executed() == txns })
		verifies := counters[crypto.PartyID(types.ReplicaID(i))].n.Load()
		if verifies == 0 || verifies >= txns {
			t.Fatalf("replica %d verified %d request tags for %d executed transactions", i, verifies, txns)
		}
		t.Logf("replica %d: %d request tags for %d transactions", i, verifies, txns)
	}
}

// TestRequestBoundToClientLinkOverTCP: a request speaks only for the client
// whose authenticated link delivered it. Client 2 sends a request naming
// client 1 and then one of its own; every replica executes client 2's
// transaction and none queues client 1's.
func TestRequestBoundToClientLinkOverTCP(t *testing.T) {
	const secret = "bind-secret"
	peers, reps := tcpCluster(t, 4, secret, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	cli, err := transport.NewTCP(transport.TCPConfig{
		IsClient: true, SelfClient: 2, Peers: peers,
		Auth: crypto.NewMAC(crypto.ClientPartyID(2), []byte(secret)),
	}, discardEndpoint{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	forged := types.NewClientRequest(0, types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(1, []byte("forged"))})
	own := types.NewClientRequest(0, types.Transaction{Client: 2, Seq: 1, Op: ycsb.EncodeWrite(2, []byte("own"))})
	for id := range peers {
		// One link delivers in order: the forged request reaches each
		// replica before client 2's own.
		if err := cli.Send(id, forged); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send(id, own); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reps {
		waitFor(t, 20*time.Second, func() bool { return ledgerHolds(r.Ledger(), 2) })
		if ledgerHolds(r.Ledger(), 1) {
			t.Fatalf("replica %d executed client 1's transaction sent on client 2's link", i)
		}
		if got := r.Executed(); got != 1 {
			t.Fatalf("replica %d executed %d transactions, want 1", i, got)
		}
	}
}

// ledgerHolds reports whether any block of l carries a transaction of c.
func ledgerHolds(l *ledger.Ledger, c types.ClientID) bool {
	for h := l.Base(); h < l.Height(); h++ {
		if b := l.Get(h); b != nil && b.Batch != nil && slices.ContainsFunc(b.Batch.Txns, func(tx types.Transaction) bool { return tx.Client == c }) {
			return true
		}
	}
	return false
}

// discardEndpoint drops everything a transport delivers.
type discardEndpoint struct{}

func (discardEndpoint) DeliverReplica(types.ReplicaID, types.Message) {}
func (discardEndpoint) DeliverClient(types.ClientID, types.Message)   {}
