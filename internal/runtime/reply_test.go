package runtime

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/sm"
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
			// All k reach each replica in one request, which fills the
			// batch on arrival, so all k land in one.
			Machine:        pbft.New(pbft.Config{BatchSize: k, Window: 1}),
			App:            ycsb.NewStore(1000),
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
// cached one is a first transmission and misses. A request mixing the
// three is answered for its cached seq and passes the others on, in order.
func TestReplyCacheHoldsLastBatches(t *testing.T) {
	sink := &ackSink{}
	r := Replica{trans: sink}
	const c = types.ClientID(3)
	for b := uint64(0); b <= replyCacheWindow; b++ { // one batch too many
		r.cacheReply(types.NewClientReply(0, 0, c, 0, types.ZeroDigest, []uint64{100*b + 1, 100*b + 2}))
	}
	// answer returns the seqs answerRetransmits passes on for a request of
	// client c's seqs, and the seqs of the replies it resent.
	answer := func(c types.ClientID, seqs ...uint64) (rest, resent []uint64) {
		sink.sent = nil
		txns := make([]types.Transaction, len(seqs))
		for i, s := range seqs {
			txns[i] = types.Transaction{Client: c, Seq: s}
		}
		if req := r.answerRetransmits(types.NewClientRequest(0, txns...)); req != nil {
			for _, tx := range req.Txns {
				rest = append(rest, tx.Seq)
			}
		}
		for _, m := range sink.sent {
			resent = append(resent, m.Seqs...)
		}
		return rest, resent
	}
	if _, resent := answer(c, 1); resent != nil {
		t.Fatalf("seq of the evicted oldest batch answered: %v", resent)
	}
	if rest, resent := answer(c, 102); rest != nil || !reflect.DeepEqual(resent, []uint64{102}) {
		t.Fatalf("seq of the oldest kept batch: passed on %v, resent %v; want a one-seq reply", rest, resent)
	}
	if _, resent := answer(c, 100*replyCacheWindow+3); resent != nil {
		t.Fatal("uncached seq answered")
	}
	if _, resent := answer(c+1, 1); resent != nil {
		t.Fatal("uncached client answered")
	}
	top := uint64(100*replyCacheWindow + 3)
	if rest, resent := answer(c, 1, 102, top); !reflect.DeepEqual(rest, []uint64{1, top}) || !reflect.DeepEqual(resent, []uint64{102}) {
		t.Fatalf("mixed request: passed on %v, resent %v; want [1 %d] and [102]", rest, resent, top)
	}
}

// ackSink is a transport that keeps the client replies sent through it.
type ackSink struct{ sent []*types.ClientReply }

func (s *ackSink) Send(types.ReplicaID, types.Message) error { return nil }
func (s *ackSink) Close() error                              { return nil }
func (s *ackSink) SendClient(_ types.ClientID, m types.Message) error {
	s.sent = append(s.sent, m.(*types.ClientReply))
	return nil
}

// ackBatch acks a decided batch of txns from a bare replica and returns the
// replies it sent.
func ackBatch(sink *ackSink, txns []types.Transaction) {
	r := &Replica{cfg: Config{ID: 2}, trans: sink}
	d := sm.Decision{Instance: 1, Round: 3, Batch: &types.Batch{Txns: txns}}
	r.ackClients(d, types.Hash([]byte("result")))
}

// TestAckClientsGroupsByClient: a batch's replies are one per client, in
// first-appearance order, each listing the client's seqs in batch order
// with every duplicate once; no-ops are nobody's.
func TestAckClientsGroupsByClient(t *testing.T) {
	txn := func(c types.ClientID, seq uint64) types.Transaction {
		return types.Transaction{Client: c, Seq: seq, Op: []byte{1}}
	}
	noop := types.NoOp()
	type ack struct {
		c    types.ClientID
		seqs []uint64
	}
	for _, tc := range []struct {
		name string
		txns []types.Transaction
		want []ack
	}{
		{
			name: "three clients interleaved, a repeat and no-ops",
			txns: []types.Transaction{txn(5, 1), txn(3, 7), noop, txn(5, 2), txn(9, 4), txn(3, 8),
				txn(5, 1), noop, txn(9, 5), txn(3, 9)},
			want: []ack{{5, []uint64{1, 2}}, {3, []uint64{7, 8, 9}}, {9, []uint64{4, 5}}},
		},
		{
			name: "seqs out of order",
			txns: []types.Transaction{txn(4, 3), txn(4, 1), txn(4, 3), txn(4, 2), txn(4, 1)},
			want: []ack{{4, []uint64{3, 1, 2}}},
		},
		{
			name: "only no-ops",
			txns: []types.Transaction{noop, noop},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &ackSink{}
			ackBatch(sink, tc.txns)
			var got []ack
			for _, r := range sink.sent {
				if r.Replica != 2 || r.Inst != 1 || r.Round != 3 || r.Seq != r.Seqs[0] {
					t.Fatalf("reply header %+v", r)
				}
				got = append(got, ack{r.Client, r.Seqs})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replies %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAckClientsAllocsFlatInBatchSize: acking a batch allocates per client,
// not per transaction — two clients' 400 transactions cost no more
// allocations than their 4.
func TestAckClientsAllocsFlatInBatchSize(t *testing.T) {
	allocs := func(k int) float64 {
		txns := make([]types.Transaction, k)
		for i := range txns {
			txns[i] = types.Transaction{Client: types.ClientID(1 + i%2), Seq: uint64(i), Op: []byte{1}}
		}
		sink := &ackSink{sent: make([]*types.ClientReply, 0, 4)}
		r := &Replica{cfg: Config{ID: 2}, trans: sink}
		d := sm.Decision{Instance: 1, Round: 3, Batch: &types.Batch{Txns: txns}}
		return testing.AllocsPerRun(50, func() {
			r.ackClients(d, types.Digest{})
			sink.sent = sink.sent[:0]
		})
	}
	if small, large := allocs(4), allocs(400); large > small {
		t.Fatalf("%v allocations for a 400-transaction batch, %v for 4", large, small)
	}
}
