package client

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// fakeEnv is a synchronous sm.ClientEnv capturing effects.
type fakeEnv struct {
	id       types.ClientID
	params   quorum.Params
	sent     []types.Message
	sentTo   []types.ReplicaID
	bcast    []types.Message
	now      time.Duration
	timers   map[sm.TimerID]time.Duration
	canceled []sm.TimerID
}

func newFakeEnv(n int) *fakeEnv {
	p, _ := quorum.NewParams(n)
	return &fakeEnv{id: 1, params: p, timers: make(map[sm.TimerID]time.Duration)}
}

func (f *fakeEnv) Client() types.ClientID { return f.id }
func (f *fakeEnv) Params() quorum.Params  { return f.params }
func (f *fakeEnv) Send(to types.ReplicaID, m types.Message) {
	f.sent = append(f.sent, m)
	f.sentTo = append(f.sentTo, to)
}
func (f *fakeEnv) Broadcast(m types.Message)               { f.bcast = append(f.bcast, m) }
func (f *fakeEnv) SetTimer(id sm.TimerID, d time.Duration) { f.timers[id] = d }
func (f *fakeEnv) CancelTimer(id sm.TimerID) {
	f.canceled = append(f.canceled, id)
	delete(f.timers, id)
}
func (f *fakeEnv) Now() time.Duration  { return f.now }
func (f *fakeEnv) Logf(string, ...any) {}

func tx(seq uint64) types.Transaction {
	return types.Transaction{Client: 1, Seq: seq, Op: []byte{byte(seq)}}
}

func reply(from types.ReplicaID, seq uint64, result types.Digest) *types.ClientReply {
	return batchReply(from, 1, result, seq)
}

// batchReply is one replica's reply to client c covering seqs of one batch.
func batchReply(from types.ReplicaID, c types.ClientID, result types.Digest, seqs ...uint64) *types.ClientReply {
	return types.NewClientReply(0, from, c, 1, result, seqs)
}

// sentSeqs lists the seqs a sent request carries, in request order.
func sentSeqs(m types.Message) []uint64 {
	var out []uint64
	for _, tx := range m.(*types.ClientRequest).Txns {
		out = append(out, tx.Seq)
	}
	return out
}

func completedSeqs(c *Client) []uint64 {
	var out []uint64
	for _, comp := range c.Completions() {
		out = append(out, comp.Seq)
	}
	return out
}

// TestBatchReplyCompletesOnlyInFlightSeqs: one reply lists every seq the
// client had in a decided batch. Of {in flight, already completed, never
// sent}, only the in-flight seq completes, and only once f+1 replicas sent
// matching replies.
func TestBatchReplyCompletesOnlyInFlightSeqs(t *testing.T) {
	env := newFakeEnv(4) // f = 1: needs 2 matching replies
	c := New(Config{Client: 1, Broadcast: true})
	c.Submit(tx(1))
	c.Submit(tx(2))
	c.Submit(tx(3)) // queued behind the window of 1: never sent
	c.Start(env)
	c.Flush()
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d)) // seq 1 completes; seq 2 goes in flight
	c.Flush()
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("completed %v, want [1]", got)
	}
	env.bcast = nil

	c.OnMessage(0, batchReply(0, 1, d, 1, 2, 3))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("one batch reply completed %v", got)
	}
	c.OnMessage(2, batchReply(2, 1, d, 1, 2, 3))
	c.Flush()
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("after f+1 batch replies completed %v, want [1 2]", got)
	}
	if len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{3}) {
		t.Fatalf("window refill sent %v, want seq 3", env.bcast)
	}
	// Seq 3 was not in flight when those replies arrived: they must not
	// count toward it, so one more reply cannot complete it.
	c.OnMessage(3, batchReply(3, 1, d, 3))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("seq 3 completed on replies sent before it was, %v", got)
	}
}

// TestReplyForAnotherClientIgnored: a reply naming a different client
// counts toward nothing, even when its seqs match in-flight ones.
func TestReplyForAnotherClientIgnored(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	d := types.Hash([]byte("r"))
	c.OnMessage(0, batchReply(0, 2, d, 1))
	c.OnMessage(1, batchReply(1, 2, d, 1))
	c.OnMessage(2, reply(2, 1, d))
	if c.Done() {
		t.Fatal("replies for another client counted")
	}
}

// TestFMatchingPlusOneDivergentBatchRepliesDoNotComplete: f matching batch
// replies and one with a different Result are not f+1 matching.
func TestFMatchingPlusOneDivergentBatchRepliesDoNotComplete(t *testing.T) {
	env := newFakeEnv(7) // f = 2: needs 3 matching replies
	c := New(Config{Client: 1, Broadcast: true})
	c.SetWindow(2)
	c.Submit(tx(1))
	c.Submit(tx(2))
	c.Start(env)
	d := types.Hash([]byte("r"))
	c.OnMessage(0, batchReply(0, 1, d, 1, 2))
	c.OnMessage(1, batchReply(1, 1, d, 1, 2))
	c.OnMessage(2, batchReply(2, 1, types.Hash([]byte("other")), 1, 2))
	if len(c.Completions()) != 0 {
		t.Fatalf("completed %v on f matching replies", completedSeqs(c))
	}
	c.OnMessage(3, batchReply(3, 1, d, 1, 2))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("completed %v after f+1 matching, want [1 2]", got)
	}
}

func TestCompletesAtFPlusOneMatchingReplies(t *testing.T) {
	env := newFakeEnv(4) // f = 1: needs 2 matching replies
	c := New(Config{Client: 1, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	c.Flush()
	if len(env.bcast) != 1 {
		t.Fatalf("broadcasts %d, want 1", len(env.bcast))
	}
	d := types.Hash([]byte("result"))
	c.OnMessage(0, reply(0, 1, d))
	if c.Done() {
		t.Fatal("completed with a single reply")
	}
	c.OnMessage(2, reply(2, 1, d))
	if !c.Done() {
		t.Fatal("not complete after f+1 matching replies")
	}
	if got := c.Completions(); len(got) != 1 || got[0].Result != d {
		t.Fatalf("completions %+v", got)
	}
}

func TestMismatchedRepliesDoNotComplete(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	c.OnMessage(0, reply(0, 1, types.Hash([]byte("a"))))
	c.OnMessage(2, reply(2, 1, types.Hash([]byte("b"))))
	c.OnMessage(3, reply(3, 1, types.Hash([]byte("c"))))
	if c.Done() {
		t.Fatal("completed on divergent replies")
	}
	// A second matching reply for one of the results completes.
	c.OnMessage(1, reply(1, 1, types.Hash([]byte("b"))))
	if !c.Done() {
		t.Fatal("not complete after a matching pair formed")
	}
}

func TestDuplicateRepliesFromSameReplicaDoNotCount(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(0, reply(0, 1, d))
	if c.Done() {
		t.Fatal("one replica's repeated replies completed the request")
	}
}

func TestRetryEscalatesToBroadcast(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Primary: 0, RetryTimeout: time.Second})
	c.Submit(tx(1))
	c.Start(env)
	c.Flush()
	if len(env.sent) != 1 || len(env.bcast) != 0 {
		t.Fatalf("initial send went to %d targets, bcast %d", len(env.sent), len(env.bcast))
	}
	// Fire the retransmission timer: escalation broadcasts (§III-E forced
	// execution).
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	c.Flush()
	if len(env.bcast) != 1 {
		t.Fatal("retry did not escalate to broadcast")
	}
	if c.Retries() != 1 {
		t.Fatalf("retries %d, want 1", c.Retries())
	}
}

func TestPipelineWindow(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.SetWindow(2)
	for s := uint64(1); s <= 4; s++ {
		c.Submit(tx(s))
	}
	c.Start(env)
	c.Flush()
	if len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{1, 2}) {
		t.Fatalf("first flush sent %v, want one request for the window [1 2]", env.bcast)
	}
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	c.Flush()
	if len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{3}) {
		t.Fatalf("completion did not pump the next txn: %v", env.bcast)
	}
}

func TestLiveSubmission(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.Start(env)
	if len(env.bcast) != 0 {
		t.Fatal("sent without submissions")
	}
	c.OnMessage(types.NoReplica, &Submission{Tx: tx(1)})
	c.Flush()
	if len(env.bcast) != 1 {
		t.Fatal("live submission not pumped")
	}
}

// TestFlushSendsOneRequestPerDestination: k submissions handled before one
// Flush leave as one request per destination, carrying all k in submission
// order — to the primary for a primary-first client, to every replica for a
// broadcasting one.
func TestFlushSendsOneRequestPerDestination(t *testing.T) {
	const k = 7
	want := []uint64{1, 2, 3, 4, 5, 6, 7}
	for _, broadcast := range []bool{false, true} {
		env := newFakeEnv(4)
		c := New(Config{Client: 1, Broadcast: broadcast, Primary: 2})
		c.SetWindow(k)
		c.Start(env)
		for _, s := range want {
			c.OnMessage(types.NoReplica, &Submission{Tx: tx(s)})
		}
		if len(env.sent)+len(env.bcast) != 0 {
			t.Fatalf("broadcast=%v: sent before Flush", broadcast)
		}
		c.Flush()
		out, to := env.sent, env.sentTo
		if broadcast {
			out, to = env.bcast, nil
		}
		if len(env.sent)+len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(out[0]), want) {
			t.Fatalf("broadcast=%v: sent %d requests, bcast %d; want one carrying %v", broadcast, len(env.sent), len(env.bcast), want)
		}
		if !broadcast && to[0] != 2 {
			t.Fatalf("primary-first request went to replica %d, want 2", to[0])
		}
		c.Flush()
		if len(env.sent)+len(env.bcast) != 1 {
			t.Fatal("a second Flush resent the request")
		}
	}
}

// TestLoneSubmissionLeavesAtNextFlush: nothing waits to fill a request. A
// single submission arms no timer until it leaves at the next Flush, and
// then only its retry timer.
func TestLoneSubmissionLeavesAtNextFlush(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.SetWindow(64)
	c.Start(env)
	c.OnMessage(types.NoReplica, &Submission{Tx: tx(1)})
	if len(env.timers) != 0 || len(env.bcast) != 0 {
		t.Fatalf("before Flush: timers %v, broadcasts %d", env.timers, len(env.bcast))
	}
	c.Flush()
	if len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{1}) {
		t.Fatalf("Flush sent %v, want one request for seq 1", env.bcast)
	}
	retry := sm.TimerID{Kind: sm.TimerClient, Round: 1}
	if len(env.timers) != 1 || env.timers[retry] != time.Second {
		t.Fatalf("timers after Flush %v, want only the retry timer of seq 1", env.timers)
	}
}

// TestFlushSplitsAtEnvelopeCap: more transactions than one request may
// carry leave as full requests plus one remainder, in order.
func TestFlushSplitsAtEnvelopeCap(t *testing.T) {
	const k = 2*maxEnvelopeTxns + 5
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.SetWindow(k)
	for s := uint64(1); s <= k; s++ {
		c.Submit(tx(s))
	}
	c.Start(env)
	c.Flush()
	if len(env.bcast) != 3 {
		t.Fatalf("%d requests, want 3", len(env.bcast))
	}
	next := uint64(1)
	for i, want := range []int{maxEnvelopeTxns, maxEnvelopeTxns, 5} {
		seqs := sentSeqs(env.bcast[i])
		if len(seqs) != want {
			t.Fatalf("request %d carries %d txns, want %d", i, len(seqs), want)
		}
		for _, s := range seqs {
			if s != next {
				t.Fatalf("request %d carries seq %d, want %d", i, s, next)
			}
			next++
		}
	}
}

// TestEscalatedRetransmissionReachesAllReplicas: a primary-first client's
// timed-out transactions leave at the next Flush as one broadcast request,
// while the transactions still within their timeout are not resent.
func TestEscalatedRetransmissionReachesAllReplicas(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Primary: 0, RetryTimeout: time.Second})
	c.SetWindow(3)
	for s := uint64(1); s <= 3; s++ {
		c.Submit(tx(s))
	}
	c.Start(env)
	c.Flush()
	if len(env.sent) != 1 || len(env.bcast) != 0 {
		t.Fatalf("initial flush: sent %d, bcast %d; want one request to the primary", len(env.sent), len(env.bcast))
	}
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 3})
	c.Flush()
	if len(env.sent) != 1 || len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{1, 3}) {
		t.Fatalf("after two timeouts: sent %d, bcast %v; want one broadcast of [1 3]", len(env.sent), env.bcast)
	}
	// Escalation sticks: the next retransmission of seq 1 is broadcast too.
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	c.Flush()
	if len(env.sent) != 1 || len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{1}) {
		t.Fatalf("second retry of seq 1: sent %d, bcast %v", len(env.sent), env.bcast)
	}
	if c.Retries() != 3 {
		t.Fatalf("retries %d, want 3", c.Retries())
	}
}

func TestCompletionHook(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	var hooked []Completion
	c.SetCompletionHook(func(comp Completion) { hooked = append(hooked, comp) })
	c.Submit(tx(1))
	c.Start(env)
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	if len(hooked) != 1 || hooked[0].Seq != 1 {
		t.Fatalf("hook saw %+v", hooked)
	}
}
