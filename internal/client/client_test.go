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
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d)) // seq 1 completes; seq 2 goes in flight
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("completed %v, want [1]", got)
	}
	env.bcast = nil

	c.OnMessage(0, batchReply(0, 1, d, 1, 2, 3))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("one batch reply completed %v", got)
	}
	c.OnMessage(2, batchReply(2, 1, d, 1, 2, 3))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("after f+1 batch replies completed %v, want [1 2]", got)
	}
	if len(env.bcast) != 1 || env.bcast[0].(*types.ClientRequest).Tx.Seq != 3 {
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
	if len(env.sent) != 1 || len(env.bcast) != 0 {
		t.Fatalf("initial send went to %d targets, bcast %d", len(env.sent), len(env.bcast))
	}
	// Fire the retransmission timer: escalation broadcasts (§III-E forced
	// execution).
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
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
	if len(env.bcast) != 2 {
		t.Fatalf("in flight %d, want window 2", len(env.bcast))
	}
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	if len(env.bcast) != 3 {
		t.Fatalf("completion did not pump the next txn: %d broadcasts", len(env.bcast))
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
	if len(env.bcast) != 1 {
		t.Fatal("live submission not pumped")
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

func TestZyzzyvaFastPathNeedsAllN(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Mode: ModeZyzzyva, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	sr := func(from types.ReplicaID) *types.SpecResponse {
		return &types.SpecResponse{Replica: from, View: 0, Round: 1,
			History: types.Hash([]byte("h")), Result: types.Hash([]byte("r")), Client: 1, Count: 1}
	}
	for r := types.ReplicaID(0); r < 3; r++ {
		c.OnMessage(r, sr(r))
	}
	if c.Done() {
		t.Fatal("fast path completed with 3 of 4 responses")
	}
	c.OnMessage(3, sr(3))
	if !c.Done() {
		t.Fatal("fast path did not complete with all n responses")
	}
	if !c.Completions()[0].FastPath {
		t.Fatal("completion not marked fast path")
	}
}

func TestZyzzyvaSlowPathCommitCert(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Mode: ModeZyzzyva, Broadcast: true, RetryTimeout: time.Second})
	c.Submit(tx(1))
	c.Start(env)
	sr := func(from types.ReplicaID) *types.SpecResponse {
		return &types.SpecResponse{Replica: from, View: 0, Round: 1,
			History: types.Hash([]byte("h")), Result: types.Hash([]byte("r")), Client: 1, Count: 1}
	}
	// Only nf = 3 responses arrive (one replica crashed).
	for r := types.ReplicaID(0); r < 3; r++ {
		c.OnMessage(r, sr(r))
	}
	// Timeout: the client must assemble and broadcast a commit cert.
	env.bcast = nil
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	if len(env.bcast) != 1 {
		t.Fatalf("no commit certificate broadcast (%d broadcasts)", len(env.bcast))
	}
	cert, ok := env.bcast[0].(*types.CommitCert)
	if !ok || len(cert.Responses) != 3 {
		t.Fatalf("unexpected broadcast %T %+v", env.bcast[0], env.bcast[0])
	}
	// nf LOCAL-COMMIT acks complete the request.
	for r := types.ReplicaID(0); r < 3; r++ {
		c.OnMessage(r, &types.LocalCommit{Replica: r, View: 0, Round: 1, History: cert.History, Client: 1})
	}
	if !c.Done() {
		t.Fatal("slow path did not complete after nf local commits")
	}
	if c.Completions()[0].FastPath {
		t.Fatal("slow-path completion marked fast")
	}
}

func TestZyzzyvaIgnoresPlainReplies(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Mode: ModeZyzzyva, Broadcast: true})
	c.Submit(tx(1))
	c.Start(env)
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	c.OnMessage(2, reply(2, 1, d))
	if c.Done() {
		t.Fatal("Zyzzyva client completed on execution replies")
	}
}
