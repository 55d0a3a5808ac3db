package runtime

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// asyncCluster is durableCluster with the pipelined journal enabled.
func asyncCluster(t *testing.T, n int, base string, queueDepth int, machine func() sm.Machine) ([]*Replica, *transport.Memory) {
	t.Helper()
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	hub := transport.NewMemory()
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		reps[i], err = New(Config{
			ID:      types.ReplicaID(i),
			Params:  params,
			Machine: machine(),
			App:     ycsb.NewStore(1000),
			DataDir: filepath.Join(base, "replica-"+string(rune('0'+i))),
			Journaling: JournalOptions{
				Sync:       wal.SyncGroup,
				queueDepth: queueDepth,
			},
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		reps[i].Attach(hub.AttachReplica(types.ReplicaID(i), reps[i]))
	}
	for _, r := range reps {
		r.Run()
	}
	return reps, hub
}

// TestAsyncJournalServesAndResumes is the pipelined path's end-to-end
// acceptance: clients get their f+1 replies only via durability callbacks,
// and a full restart resumes every replica at the acknowledged height.
func TestAsyncJournalServesAndResumes(t *testing.T) {
	base := t.TempDir()
	const txns = 8
	mkMachine := func() sm.Machine { return pbft.New(pbft.Config{BatchSize: 1, Window: 4}) }
	reps, hub := asyncCluster(t, 4, base, 16, mkMachine)
	c := runClient(t, hub, reps[0].cfg.Params, 1, txns)
	waitFor(t, 15*time.Second, func() bool { return len(c.Completions()) == txns })
	for i, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Ledger().Height() == txns })
		if err := r.DurabilityErr(); err != nil {
			t.Fatalf("replica %d durability: %v", i, err)
		}
	}
	stopAll(reps, hub)

	// The drained shutdown leaves every acked block on disk; a fresh
	// process resumes at the same height with an identical chain.
	reps2, hub2 := asyncCluster(t, 4, base, 16, mkMachine)
	defer stopAll(reps2, hub2)
	for i, r := range reps2 {
		if got := r.Ledger().Height(); got != txns {
			t.Fatalf("replica %d resumed at height %d, want %d", i, got, txns)
		}
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d restored chain: %v", i, err)
		}
	}
	// And keeps deciding new work.
	c2 := runClient(t, hub2, reps2[0].cfg.Params, 2, 2)
	waitFor(t, 15*time.Second, func() bool { return len(c2.Completions()) == 2 })
}

// TestAsyncCrashRestartKeepsAckedPrefix crashes a replica without any drain
// — in-flight queue and write buffer die on the floor — and verifies the
// restart replays a verified prefix covering every height the CLIENT got
// enough replies for. This is the "no acked request is ever lost" guarantee
// of the ack-deferral design.
func TestAsyncCrashRestartKeepsAckedPrefix(t *testing.T) {
	base := t.TempDir()
	const txns = 12
	reps, hub := asyncCluster(t, 4, base, 4, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := runClient(t, hub, reps[0].cfg.Params, 1, txns)
	waitFor(t, 15*time.Second, func() bool { return len(c.Completions()) == txns })
	acked := uint64(len(c.Completions()))

	// Crash every replica abruptly: no committer drain, no buffer flush.
	for i, r := range reps {
		hub.Detach(types.ReplicaID(i))
		r.stopOnce.Do(func() { close(r.stopped) })
		r.wg.Wait()
		r.Durable().CloseAbrupt()
	}

	// A client completion requires f+1 = 2 identical replies, and a reply
	// is only sent once that replica's WAL record is durable. So at least
	// f+1 replicas must replay every acked height after the crash.
	quorumOK := 0
	for i := 0; i < 4; i++ {
		r, err := New(Config{
			ID:      types.ReplicaID(i),
			Params:  reps[0].cfg.Params,
			Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
			App:     ycsb.NewStore(1000),
			DataDir: filepath.Join(base, "replica-"+string(rune('0'+i))),
		})
		if err != nil {
			t.Fatalf("restart replica %d: %v", i, err)
		}
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d post-crash chain fails audit: %v", i, err)
		}
		if r.Ledger().Height() >= acked {
			quorumOK++
		}
		r.Stop()
	}
	if quorumOK < 2 {
		t.Fatalf("only %d replicas hold all %d acked heights; f+1 = 2 must", quorumOK, acked)
	}
}

// TestAsyncJournalFailureSilencesAcks kills the WAL under a running async
// replica: the sticky error must surface through the committer to
// DurabilityErr, and the replica must stop acknowledging — clients still
// complete via the three healthy replicas.
func TestAsyncJournalFailureSilencesAcks(t *testing.T) {
	base := t.TempDir()
	reps, hub := asyncCluster(t, 4, base, 8, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	defer stopAll(reps, hub)
	c := runClient(t, hub, reps[0].cfg.Params, 1, 2)
	waitFor(t, 15*time.Second, func() bool { return len(c.Completions()) == 2 })

	// Replica 3's disk "dies": every later submit fails through the
	// committer with a sticky error.
	reps[3].Durable().WAL().Close()

	// A second client, attached through a spy that records which replica
	// sent each reply.
	mach := client.New(client.Config{Client: 2, Broadcast: true, RetryTimeout: time.Second})
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 1000, Seed: 2})
	for i := 0; i < 3; i++ {
		mach.Submit(wl.Next(2))
	}
	proc := NewClient(2, reps[0].cfg.Params, mach)
	spy := &replySpy{inner: proc, from: make(map[types.ReplicaID]int)}
	proc.Attach(hub.AttachClient(2, spy))
	proc.Run()
	defer proc.Stop()

	waitFor(t, 15*time.Second, func() bool { return len(mach.Completions()) == 3 })
	waitFor(t, 10*time.Second, func() bool { return reps[3].DurabilityErr() != nil })

	// The broken replica must not have acknowledged anything decided after
	// its journal died; the three healthy replicas carried the quorum.
	if n := spy.replies(3); n != 0 {
		t.Fatalf("replica 3 sent %d replies after its journal died", n)
	}
	for id := types.ReplicaID(0); id < 3; id++ {
		if spy.replies(id) == 0 {
			t.Fatalf("healthy replica %d sent no replies", id)
		}
	}
}

// replySpy counts client replies per sending replica on their way into the
// client process.
type replySpy struct {
	inner transport.Endpoint
	mu    sync.Mutex
	from  map[types.ReplicaID]int
}

func (s *replySpy) DeliverReplica(from types.ReplicaID, m types.Message) {
	if _, ok := m.(*types.ClientReply); ok {
		s.mu.Lock()
		s.from[from]++
		s.mu.Unlock()
	}
	s.inner.DeliverReplica(from, m)
}

func (s *replySpy) DeliverClient(c types.ClientID, m types.Message) {
	s.inner.DeliverClient(c, m)
}

func (s *replySpy) replies(from types.ReplicaID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.from[from]
}

// TestDataDirRefusesForeignReplica is the identity-stamp bugfix at the
// runtime level: replica 1 must not come up on replica 0's data dir.
func TestDataDirRefusesForeignReplica(t *testing.T) {
	base := t.TempDir()
	params, _ := quorum.NewParams(4)
	dir := filepath.Join(base, "replica-0")
	r, err := New(Config{
		ID: 0, Params: params,
		Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
		App:     ycsb.NewStore(1000),
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if _, err := New(Config{
		ID: 1, Params: params,
		Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
		App:     ycsb.NewStore(1000),
		DataDir: dir,
	}); err == nil {
		t.Fatal("replica 1 opened replica 0's data dir")
	}
}
