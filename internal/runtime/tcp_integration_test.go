package runtime

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// tcpAuthOpts parameterizes the authentication stack of a test cluster.
type tcpAuthOpts struct {
	// auth builds the party's authenticator; nil runs unauthenticated.
	auth func(party uint32) crypto.Authenticator
	// cacheEntries > 0 gives each replica a verified-digest cache.
	cacheEntries int
}

// macOpts is the MAC-from-shared-secret configuration the original tests
// use ("" = no authentication).
func macOpts(secret string) tcpAuthOpts {
	if secret == "" {
		return tcpAuthOpts{}
	}
	return tcpAuthOpts{auth: func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, []byte(secret)) }}
}

// dsOpts is the deterministic dev-keyring ED25519 configuration — the
// cmd/rccnode `-auth ds` stack.
func dsOpts(secret string) tcpAuthOpts {
	return tcpAuthOpts{auth: func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, []byte(secret)) }}
}

// tcpCluster spins up n replicas over loopback TCP with pairwise MACs — the
// exact stack cmd/rccnode runs.
func tcpCluster(t *testing.T, n int, secret string, machine func() sm.Machine) (map[types.ReplicaID]string, []*Replica) {
	t.Helper()
	return tcpClusterWith(t, n, macOpts(secret), machine)
}

func tcpClusterWith(t *testing.T, n int, opts tcpAuthOpts, machine func() sm.Machine) (map[types.ReplicaID]string, []*Replica) {
	t.Helper()
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	tcps := make([]*transport.TCP, n)
	peers := make(map[types.ReplicaID]string)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		reps[i], err = New(Config{
			ID:             id,
			Params:         params,
			Machine:        machine(),
			App:            ycsb.NewStore(1000),
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := transport.TCPConfig{Self: id, Listen: "127.0.0.1:0"}
		if opts.auth != nil {
			cfg.Auth = opts.auth(crypto.PartyID(id))
		}
		if opts.cacheEntries > 0 {
			cfg.DigestCache = digestcache.New(opts.cacheEntries)
		}
		tcp, err := transport.NewTCP(cfg, reps[i])
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tcp
		peers[id] = tcp.Addr()
	}
	for i := 0; i < n; i++ {
		tcps[i].SetPeers(peers)
		reps[i].Attach(tcps[i])
		reps[i].Run()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return peers, reps
}

func tcpClient(t *testing.T, peers map[types.ReplicaID]string, params quorum.Params, id types.ClientID, secret string, txns int) *client.Client {
	t.Helper()
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 1000, Seed: int64(id)})
	txs := make([]types.Transaction, txns)
	for i := range txs {
		txs[i] = wl.Next(id)
	}
	return tcpClientWith(t, peers, params, id, macOpts(secret), txs)
}

func tcpClientWith(t *testing.T, peers map[types.ReplicaID]string, params quorum.Params, id types.ClientID, opts tcpAuthOpts, txs []types.Transaction) *client.Client {
	t.Helper()
	mach := client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: time.Second})
	for _, tx := range txs {
		mach.Submit(tx)
	}
	proc := NewClient(id, params, mach)
	cfg := transport.TCPConfig{IsClient: true, SelfClient: id, Peers: peers}
	if opts.auth != nil {
		cfg.Auth = opts.auth(crypto.ClientPartyID(id))
	}
	tcp, err := transport.NewTCP(cfg, proc)
	if err != nil {
		t.Fatal(err)
	}
	proc.Attach(tcp)
	proc.Run()
	t.Cleanup(proc.Stop)
	return mach
}

func TestPBFTOverTCP(t *testing.T) {
	params, _ := quorum.NewParams(4)
	peers, reps := tcpCluster(t, 4, "tcp-secret", func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := tcpClient(t, peers, params, 1, "tcp-secret", 5)

	waitFor(t, 20*time.Second, func() bool { return len(c.Completions()) == 5 })
	for i, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Executed() == 5 })
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d ledger: %v", i, err)
		}
	}
	h := reps[0].Ledger().Head().Hash()
	for i := 1; i < 4; i++ {
		if reps[i].Ledger().Head().Hash() != h {
			t.Fatalf("replica %d ledger diverges over TCP", i)
		}
	}
}

// TestAsyncDurableOverTCP is the multi-node smoke test of the whole
// refactored stack: real sockets, per-peer outbound queues, batched v2
// frames, the async journal, and client acks riding the per-client
// transport queues straight off the WAL committer (no shared ack sender).
// Every acked transaction must survive a full stop-and-restart.
func TestAsyncDurableOverTCP(t *testing.T) {
	base := t.TempDir()
	const n, txns = 4, 6
	params, _ := quorum.NewParams(n)
	mkMachine := func() sm.Machine { return pbft.New(pbft.Config{BatchSize: 1, Window: 4}) }

	boot := func() ([]*Replica, map[types.ReplicaID]string) {
		reps := make([]*Replica, n)
		tcps := make([]*transport.TCP, n)
		peers := make(map[types.ReplicaID]string)
		for i := 0; i < n; i++ {
			id := types.ReplicaID(i)
			var err error
			reps[i], err = New(Config{
				ID: id, Params: params, Machine: mkMachine(),
				App:            ycsb.NewStore(1000),
				DataDir:        filepath.Join(base, fmt.Sprintf("replica-%d", i)),
				ReplyToClients: true,
			})
			if err != nil {
				t.Fatalf("replica %d: %v", i, err)
			}
			tcp, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: "127.0.0.1:0"}, reps[i])
			if err != nil {
				t.Fatal(err)
			}
			tcps[i] = tcp
			peers[id] = tcp.Addr()
		}
		for i := 0; i < n; i++ {
			tcps[i].SetPeers(peers)
			reps[i].Attach(tcps[i])
			reps[i].Run()
		}
		return reps, peers
	}

	reps, peers := boot()
	c := tcpClient(t, peers, params, 1, "", txns)
	waitFor(t, 20*time.Second, func() bool { return len(c.Completions()) == txns })
	for i, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Ledger().Height() == txns })
		if err := r.DurabilityErr(); err != nil {
			t.Fatalf("replica %d durability: %v", i, err)
		}
		r.Stop()
	}

	// Restart from disk: every replica resumes at the acked height.
	reps2, _ := boot()
	for i, r := range reps2 {
		if got := r.Ledger().Height(); got != txns {
			t.Fatalf("replica %d resumed at height %d, want %d", i, got, txns)
		}
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d restored chain: %v", i, err)
		}
		r.Stop()
	}
}

func TestRCCOverTCP(t *testing.T) {
	params, _ := quorum.NewParams(4)
	peers, _ := tcpCluster(t, 4, "", func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c1 := tcpClient(t, peers, params, 1, "", 3)
	c2 := tcpClient(t, peers, params, 2, "", 3)
	waitFor(t, 30*time.Second, func() bool {
		return len(c1.Completions()) == 3 && len(c2.Completions()) == 3
	})
}
