package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// deliverReplica builds a replica that is not running, with sink as its
// transport, and the env its loop would hand the machine.
func deliverReplica(t *testing.T, dataDir string, sink transport.Transport) (*Replica, *replicaEnv) {
	t.Helper()
	params, _ := quorum.NewParams(4)
	r, err := New(Config{
		ID: 2, Params: params,
		Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
		App:     ycsb.NewStore(100),
		DataDir: dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Attach(sink)
	t.Cleanup(r.Stop)
	return r, &replicaEnv{host: r.host, r: r}
}

func writeBatch() *types.Batch {
	return &types.Batch{Txns: []types.Transaction{
		{Client: 5, Seq: 1, Op: ycsb.EncodeWrite(3, []byte("v"))},
		{Client: 5, Seq: 2, Op: ycsb.EncodeWrite(4, []byte("w"))},
	}}
}

// TestMemoryLedgerJournalsDecision: without a DataDir a decision's block
// joins the in-memory ledger with its proof and commits to the state the
// batch left behind.
func TestMemoryLedgerJournalsDecision(t *testing.T) {
	r, env := deliverReplica(t, "", &ackSink{})
	env.Deliver(sm.Decision{Instance: 2, Round: 9, Batch: writeBatch()})

	l := r.Ledger()
	if l.Height() != 1 || l.Head().Proof.Instance != 2 || l.Head().Proof.Round != 9 {
		t.Fatalf("ledger height %d, head proof %+v", l.Height(), l.Head().Proof)
	}
	if l.Head().StateHash != r.StateDigest() {
		t.Fatal("block does not commit to the executed state")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.Executed() != 2 {
		t.Fatalf("executed %d, want 2", r.Executed())
	}
}

// TestMemoryLedgerAcksInline: without a DataDir the clients are answered
// before Deliver returns, with the batch's ResultHash.
func TestMemoryLedgerAcksInline(t *testing.T) {
	sink := &ackSink{}
	_, env := deliverReplica(t, "", sink)
	b := writeBatch()
	env.Deliver(sm.Decision{Instance: 2, Round: 9, Batch: b})

	if len(sink.sent) != 1 {
		t.Fatalf("%d replies sent before Deliver returned, want 1", len(sink.sent))
	}
	if want := exec.Apply(ycsb.NewStore(100), b.Txns); sink.sent[0].Result != want {
		t.Fatalf("reply carries result %x, want %x", sink.sent[0].Result, want)
	}
}

// commitSink records, with each client reply, how many WAL commit points
// its replica had issued when the reply left.
type commitSink struct {
	ackSink
	mu      sync.Mutex
	r       *Replica
	commits []uint64
}

func (s *commitSink) SendClient(c types.ClientID, m types.Message) error {
	_, commits := s.r.Durable().Appender().Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits = append(s.commits, commits)
	return nil
}

func (s *commitSink) sentAt() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.commits...)
}

// TestDurableAckFollowsCommitPoint: with a DataDir the block joins the
// chain at once, but the client is answered only from the WAL committer,
// after a commit point covered the block's record.
func TestDurableAckFollowsCommitPoint(t *testing.T) {
	sink := &commitSink{}
	r, env := deliverReplica(t, t.TempDir(), sink)
	sink.r = r
	env.Deliver(sm.Decision{Instance: 2, Round: 9, Batch: writeBatch()})
	if h := r.Ledger().Height(); h != 1 {
		t.Fatalf("ledger height %d after Deliver, want 1", h)
	}
	waitFor(t, 5*time.Second, func() bool { return len(sink.sentAt()) == 1 })
	if at := sink.sentAt()[0]; at < 1 {
		t.Fatalf("reply sent after %d commit points; the block's record was not durable", at)
	}
	if err := r.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionHookRefillKeepsWindowFull: a closed-loop client that
// refills its 1024-transaction window from its completion hook, over the
// memory transport, completes 20 000 transactions. The hook runs on the
// client's loop, so it refills with Submit, which only queues.
func TestCompletionHookRefillKeepsWindowFull(t *testing.T) {
	const window, total = 1024, 20000
	params, _ := quorum.NewParams(4)
	_, hub := memCluster(t, 4, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 100, Window: 4})
	})
	const id = types.ClientID(1)
	mach := client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: time.Minute})
	mach.SetWindow(window)
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 1000, Seed: 1})
	var completed atomic.Int64
	mach.SetCompletionHook(func(client.Completion) {
		if completed.Add(1)+window <= total {
			mach.Submit(wl.Next(id))
		}
	})
	for i := 0; i < window; i++ {
		mach.Submit(wl.Next(id))
	}
	proc := NewClient(id, params, mach)
	proc.Attach(hub.AttachClient(id, proc))
	proc.Run()
	t.Cleanup(proc.Stop)
	waitFor(t, 10*time.Second, func() bool { return completed.Load() == total })
}

// TestHostTimersStayBounded runs an RCC cluster over the memory transport
// for thousands of rounds and checks that the host's timer map holds only
// armed timers: a fired timer removes its own entry, and a round that
// executes cancels its stall timer, so the map stays within a small
// constant per instance however long the replica runs.
func TestHostTimersStayBounded(t *testing.T) {
	const instances, perClient = 4, 2500
	params, _ := quorum.NewParams(4)
	reps, hub := memCluster(t, 4, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 8})
	})
	clients := make([]*client.Client, instances)
	for i := range clients {
		clients[i] = runClient(t, hub, params, types.ClientID(i+1), perClient)
	}
	for _, c := range clients {
		waitFor(t, 60*time.Second, func() bool { return len(c.Completions()) == perClient })
	}
	for i, r := range reps {
		r.host.timers.Lock()
		n := len(r.host.timers.m)
		r.host.timers.Unlock()
		if h := r.Ledger().Height(); h < instances*perClient {
			t.Fatalf("replica %d at height %d, want %d", i, h, instances*perClient)
		}
		if n > 4*instances {
			t.Fatalf("replica %d holds %d timers after %d blocks, want at most %d", i, n, r.Ledger().Height(), 4*instances)
		}
	}
}
