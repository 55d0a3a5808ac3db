package runtime

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// replyRecorder wraps a replica's transport and records the client replies
// it sends.
type replyRecorder struct {
	transport.Transport
	mu   sync.Mutex
	sent []*types.ClientReply
}

func (t *replyRecorder) SendClient(c types.ClientID, m types.Message) error {
	if r, ok := m.(*types.ClientReply); ok {
		t.mu.Lock()
		t.sent = append(t.sent, r)
		t.mu.Unlock()
	}
	return t.Transport.SendClient(c, m)
}

func (t *replyRecorder) replies() []*types.ClientReply {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*types.ClientReply(nil), t.sent...)
}

// TestOneReplyPerClientBatch: k = 40 transactions of one client decided in
// one batch cost each replica exactly one reply listing all 40 seqs, and
// all 40 complete. A retransmit of seq 1 — 39 seqs but one batch old — is
// answered from the reply cache with a one-seq reply.
func TestOneReplyPerClientBatch(t *testing.T) {
	const k, id = 40, types.ClientID(7)
	params, _ := quorum.NewParams(4)
	hub := transport.NewMemory()
	reps := make([]*Replica, 4)
	recs := make([]*replyRecorder, 4)
	for i := range reps {
		var err error
		reps[i], err = New(Config{
			ID: types.ReplicaID(i), Params: params,
			// The batch proposes only when full, so all k land in one.
			Machine:        pbft.New(pbft.Config{BatchSize: k, Window: 1, BatchTimeout: time.Minute}),
			App:            ycsb.NewStore(1000),
			Journal:        true,
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &replyRecorder{Transport: hub.AttachReplica(types.ReplicaID(i), reps[i])}
		reps[i].Attach(recs[i])
		reps[i].Run()
	}
	t.Cleanup(func() {
		for i, r := range reps {
			hub.Detach(types.ReplicaID(i))
			r.Stop()
		}
	})

	mach := client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: time.Minute})
	mach.SetWindow(k)
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 1000, Seed: 1})
	want := make([]uint64, k)
	var first types.Transaction
	for i := range want {
		tx := wl.Next(id)
		if i == 0 {
			first = tx
		}
		want[i] = tx.Seq
		mach.Submit(tx)
	}
	proc := NewClient(id, params, mach)
	proc.Attach(hub.AttachClient(id, proc))
	proc.Run()
	t.Cleanup(proc.Stop)

	waitFor(t, 15*time.Second, func() bool { return len(mach.Completions()) == k })
	for i, rec := range recs {
		waitFor(t, 5*time.Second, func() bool { return len(rec.replies()) > 0 })
		if h := reps[i].Ledger().Height(); h != 1 {
			t.Fatalf("replica %d decided %d blocks, want the %d txns in one", i, h, k)
		}
		got := rec.replies()
		if len(got) != 1 {
			t.Fatalf("replica %d sent %d replies for one (client, batch), want 1", i, len(got))
		}
		if got[0].Client != id || !reflect.DeepEqual(got[0].Seqs, want) {
			t.Fatalf("replica %d reply covers client %d seqs %v, want client %d seqs %v",
				i, got[0].Client, got[0].Seqs, id, want)
		}
	}

	for i, r := range reps {
		r.DeliverClient(id, types.NewClientRequest(0, first))
		waitFor(t, 5*time.Second, func() bool { return len(recs[i].replies()) == 2 })
		got := recs[i].replies()[1]
		if !reflect.DeepEqual(got.Seqs, []uint64{first.Seq}) || got.Seq != first.Seq {
			t.Fatalf("replica %d answered the retransmit with seqs %v", i, got.Seqs)
		}
		if batch := recs[i].replies()[0]; got.Result != batch.Result || got.Round != batch.Round {
			t.Fatalf("replica %d resend disagrees with its batch reply", i)
		}
	}
}

// TestReplyCacheHoldsLastBatches: the cache keeps a client's last
// replyCacheWindow batch replies, whatever their size; a seq above every
// cached one is a first transmission and misses.
func TestReplyCacheHoldsLastBatches(t *testing.T) {
	var r Replica
	const c = types.ClientID(3)
	for b := uint64(0); b <= replyCacheWindow; b++ { // one batch too many
		r.cacheReply(types.NewClientReply(0, 0, c, 0, types.ZeroDigest, []uint64{100*b + 1, 100*b + 2}))
	}
	if got := r.cachedReply(c, 1); got != nil {
		t.Fatalf("seq of the evicted oldest batch answered: %v", got.Seqs)
	}
	if got := r.cachedReply(c, 102); got == nil || !reflect.DeepEqual(got.Seqs, []uint64{102}) {
		t.Fatalf("seq of the oldest kept batch: got %v, want a one-seq reply", got)
	}
	if r.cachedReply(c, 100*replyCacheWindow+3) != nil || r.cachedReply(c+1, 1) != nil {
		t.Fatal("uncached seq or client answered")
	}
}
