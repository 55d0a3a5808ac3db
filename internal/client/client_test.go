package client

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// fakeEnv is a synchronous sm.ClientEnv capturing effects. Tests move its
// clock by setting now, or with advance, which also fires due timers.
type fakeEnv struct {
	id       types.ClientID
	params   quorum.Params
	sent     []types.Message
	sentTo   []types.ReplicaID
	bcast    []types.Message
	now      time.Duration
	timers   map[sm.TimerID]time.Duration // due time per armed timer
	canceled []sm.TimerID
	// maxArmed is the most timers ever armed at once.
	maxArmed int
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
func (f *fakeEnv) Broadcast(m types.Message) { f.bcast = append(f.bcast, m) }
func (f *fakeEnv) SetTimer(id sm.TimerID, d time.Duration) {
	f.timers[id] = f.now + d
	f.maxArmed = max(f.maxArmed, len(f.timers))
}
func (f *fakeEnv) CancelTimer(id sm.TimerID) {
	f.canceled = append(f.canceled, id)
	delete(f.timers, id)
}
func (f *fakeEnv) Now() time.Duration  { return f.now }
func (f *fakeEnv) Logf(string, ...any) {}

// advance moves the clock by d, fires every timer due by then, and flushes
// c, as a host does after each event.
func (f *fakeEnv) advance(c *Client, d time.Duration) {
	f.now += d
	for id, due := range f.timers {
		if due <= f.now {
			delete(f.timers, id)
			c.OnTimer(id)
		}
	}
	c.Flush()
}

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
	// Let the retry deadline pass: escalation broadcasts (§III-E forced
	// execution).
	env.advance(c, time.Second)
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
// then only the client timer, due RetryTimeout later.
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
	if len(env.timers) != 1 || env.timers[clientTimer] != time.Second {
		t.Fatalf("timers after Flush %v, want only the client timer, due at seq 1's deadline", env.timers)
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
	c.Submit(tx(1))
	c.Submit(tx(2))
	c.Start(env)
	c.Flush()
	env.now = 600 * time.Millisecond
	c.OnMessage(types.NoReplica, &Submission{Tx: tx(3)})
	c.Flush()
	if len(env.sent) != 2 || len(env.bcast) != 0 {
		t.Fatalf("initial flushes: sent %d, bcast %d; want two requests to the primary", len(env.sent), len(env.bcast))
	}
	env.advance(c, 400*time.Millisecond) // t = 1 s: seqs 1 and 2 time out
	if len(env.sent) != 2 || len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{1, 2}) {
		t.Fatalf("after two timeouts: sent %d, bcast %v; want one broadcast of [1 2]", len(env.sent), env.bcast)
	}
	env.advance(c, 600*time.Millisecond) // t = 1.6 s: seq 3 times out
	if len(env.sent) != 2 || len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{3}) {
		t.Fatalf("seq 3's timeout: sent %d, bcast %v; want a broadcast of [3]", len(env.sent), env.bcast)
	}
	// Escalation sticks: the next retransmission of seqs 1 and 2 is
	// broadcast too.
	env.advance(c, 400*time.Millisecond) // t = 2 s
	if len(env.sent) != 2 || len(env.bcast) != 3 || !reflect.DeepEqual(sentSeqs(env.bcast[2]), []uint64{1, 2}) {
		t.Fatalf("second retry of seqs 1 and 2: sent %d, bcast %v", len(env.sent), env.bcast)
	}
	if c.Retries() != 5 {
		t.Fatalf("retries %d, want 5", c.Retries())
	}
}

// TestRetransmissionRestartsDeadline: a transaction sent at t0 and re-sent
// at t1 falls due again only at t1 + RetryTimeout, not at any deadline of
// its t0 send.
func TestRetransmissionRestartsDeadline(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.SetWindow(2)
	c.Submit(tx(1))
	c.Start(env)
	c.Flush() // seq 1 leaves at t0 = 0
	env.now = 500 * time.Millisecond
	c.OnMessage(types.NoReplica, &Submission{Tx: tx(2)})
	c.Flush()                            // seq 2 leaves at 0.5 s
	env.advance(c, 500*time.Millisecond) // t1 = 1 s: seq 1 is re-sent
	if len(env.bcast) != 3 || !reflect.DeepEqual(sentSeqs(env.bcast[2]), []uint64{1}) {
		t.Fatalf("at t1: broadcasts %v, want seq 1 re-sent", env.bcast)
	}
	env.advance(c, 500*time.Millisecond) // 1.5 s: only seq 2 is due
	if len(env.bcast) != 4 || !reflect.DeepEqual(sentSeqs(env.bcast[3]), []uint64{2}) {
		t.Fatalf("at 1.5 s: broadcasts %v, want only seq 2 re-sent", env.bcast)
	}
	env.advance(c, 499*time.Millisecond)
	if len(env.bcast) != 4 {
		t.Fatalf("seq 1 re-sent before t1 + RetryTimeout: %v", env.bcast)
	}
	env.advance(c, time.Millisecond) // t1 + RetryTimeout
	if len(env.bcast) != 5 || !reflect.DeepEqual(sentSeqs(env.bcast[4]), []uint64{1}) {
		t.Fatalf("at t1 + RetryTimeout: broadcasts %v, want seq 1 re-sent", env.bcast)
	}
	if c.Retries() != 3 {
		t.Fatalf("retries %d, want 3", c.Retries())
	}
}

// TestCompletedTransactionNeverRetransmits: once a transaction completes,
// no deadline of its sends resends it, and the timer is cancelled once
// nothing is in flight.
func TestCompletedTransactionNeverRetransmits(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.SetWindow(2)
	c.Submit(tx(1))
	c.Submit(tx(2))
	c.Start(env)
	c.Flush()
	d := types.Hash([]byte("r"))
	env.now = 500 * time.Millisecond
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	c.Flush()
	env.advance(c, 500*time.Millisecond)
	if len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{2}) {
		t.Fatalf("broadcasts %v, want only seq 2 re-sent", env.bcast)
	}
	c.OnMessage(0, reply(0, 2, d))
	c.OnMessage(1, reply(1, 2, d))
	c.Flush()
	if len(env.timers) != 0 {
		t.Fatalf("timers %v armed with nothing in flight", env.timers)
	}
	for range 5 {
		env.advance(c, time.Second)
	}
	if len(env.bcast) != 2 || c.Retries() != 1 {
		t.Fatalf("completed transactions retransmitted: broadcasts %v, retries %d", env.bcast, c.Retries())
	}
}

// TestOneClientTimer: however many transactions are in flight and however
// often they time out, the client arms only its one timer.
func TestOneClientTimer(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.SetWindow(50)
	c.Start(env)
	for s := uint64(1); s <= 50; s++ {
		c.OnMessage(types.NoReplica, &Submission{Tx: tx(s)})
		env.advance(c, 30*time.Millisecond)
	}
	for range 100 {
		env.advance(c, 70*time.Millisecond)
	}
	if env.maxArmed != 1 {
		t.Fatalf("%d timers armed at once, want 1", env.maxArmed)
	}
	for id := range env.timers {
		if id != clientTimer {
			t.Fatalf("armed timer %+v, want only the client timer", id)
		}
	}
	if c.Retries() < 50 {
		t.Fatalf("retries %d: the transactions did not time out", c.Retries())
	}
}

// TestEarlyOrStaleTimerSendsNothing: a timer event before any deadline, or
// one left over from a timer the client no longer has armed, retransmits
// nothing; the real deadline still does.
func TestEarlyOrStaleTimerSendsNothing(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.Submit(tx(1))
	c.Start(env)
	c.Flush()
	env.now = 500 * time.Millisecond
	c.OnTimer(clientTimer) // early
	c.OnTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	c.Flush()
	if len(env.bcast) != 1 || c.Retries() != 0 {
		t.Fatalf("early timer: broadcasts %d, retries %d; want no retransmission", len(env.bcast), c.Retries())
	}
	env.advance(c, 500*time.Millisecond)
	if len(env.bcast) != 2 || c.Retries() != 1 {
		t.Fatalf("deadline: broadcasts %d, retries %d; want one retransmission", len(env.bcast), c.Retries())
	}
	d := types.Hash([]byte("r"))
	c.OnMessage(0, reply(0, 1, d))
	c.OnMessage(1, reply(1, 1, d))
	env.now += 5 * time.Second
	c.OnTimer(clientTimer) // stale: delivered after the timer was cancelled
	c.Flush()
	if len(env.bcast) != 2 || c.Retries() != 1 {
		t.Fatalf("stale timer: broadcasts %d, retries %d", len(env.bcast), c.Retries())
	}
}

// TestReplyPathAllocations: in steady state the client allocates nothing
// per transaction beyond its share of the request envelope and the
// completion log: a cycle of k submissions, one Flush and f+1 matching
// batch replies stays under half an allocation per transaction.
func TestReplyPathAllocations(t *testing.T) {
	const k = 100
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Hour})
	c.SetWindow(k)
	c.Start(env)
	subs := make([]*Submission, k)
	seqs := make([]uint64, k)
	for i := range subs {
		subs[i] = &Submission{Tx: tx(uint64(i + 1))}
		seqs[i] = uint64(i + 1)
	}
	d := types.Hash([]byte("r"))
	replies := []*types.ClientReply{batchReply(0, 1, d, seqs...), batchReply(1, 1, d, seqs...)}
	cycle := func() {
		for _, s := range subs {
			c.OnMessage(types.NoReplica, s)
		}
		c.Flush()
		for i, r := range replies {
			c.OnMessage(types.ReplicaID(i), r)
		}
		env.bcast, env.canceled = env.bcast[:0], env.canceled[:0]
	}
	cycle()
	if !c.Done() {
		t.Fatal("cycle left transactions in flight")
	}
	if per := testing.AllocsPerRun(20, cycle) / k; per >= 0.5 {
		t.Fatalf("%.2f allocations per transaction, want < 0.5", per)
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
	// The hook is the only record: the client keeps no list beside it.
	if got := c.Completions(); len(got) != 0 {
		t.Fatalf("client with a hook kept %d completions", len(got))
	}
}

// complete2 sends f+1 = 2 matching replies for seqs from replicas 0 and 1.
func complete2(c *Client, seqs ...uint64) {
	d := types.Hash([]byte("r"))
	c.OnMessage(0, batchReply(0, 1, d, seqs...))
	c.OnMessage(1, batchReply(1, 1, d, seqs...))
}

// TestOutOfOrderCompletions: replies may complete in-flight seqs in any
// order; each completes once, and the window refills as they do.
func TestOutOfOrderCompletions(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.SetWindow(4)
	for s := uint64(1); s <= 6; s++ {
		c.Submit(tx(s))
	}
	c.Start(env)
	c.Flush()
	complete2(c, 3)
	complete2(c, 4, 2)
	complete2(c, 3) // already completed
	c.Flush()
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{3, 4, 2}) {
		t.Fatalf("completed %v, want [3 4 2]", got)
	}
	if len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{5, 6}) {
		t.Fatalf("refills %v, want one request for [5 6]", env.bcast)
	}
	complete2(c, 6, 1, 5)
	if !c.Done() || !reflect.DeepEqual(completedSeqs(c), []uint64{3, 4, 2, 6, 1, 5}) {
		t.Fatalf("done %v, completed %v", c.Done(), completedSeqs(c))
	}
}

// TestStuckOldestSeqWhileWindowRefills: while the oldest seq waits for its
// replies, the window keeps refilling behind it, however far the newer seqs
// run ahead, and the oldest still completes on its replies.
func TestStuckOldestSeqWhileWindowRefills(t *testing.T) {
	const total = 1000
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Hour})
	c.SetWindow(3)
	for s := uint64(1); s <= total; s++ {
		c.Submit(tx(s))
	}
	c.Start(env)
	c.Flush()
	for s := uint64(2); s <= total; s++ {
		complete2(c, s)
		c.Flush()
	}
	if got := len(c.Completions()); got != total-1 {
		t.Fatalf("%d completions behind the stuck seq, want %d", got, total-1)
	}
	if c.Done() || c.inFlight.n != 1 {
		t.Fatalf("done %v with %d in flight, want seq 1 alone", c.Done(), c.inFlight.n)
	}
	complete2(c, 1)
	if !c.Done() || c.inFlight.span != 0 {
		t.Fatal("stuck seq did not complete")
	}
}

// TestRetransmitAfterCompletion: replies that arrive after a seq completed
// — late replicas, or answers to a retransmission — complete nothing and
// resend nothing.
func TestRetransmitAfterCompletion(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true, RetryTimeout: time.Second})
	c.SetWindow(2)
	c.Submit(tx(1))
	c.Submit(tx(2))
	c.Start(env)
	c.Flush()
	env.advance(c, time.Second) // both time out and are re-sent
	complete2(c, 1)
	d := types.Hash([]byte("r"))
	c.OnMessage(2, reply(2, 1, d))
	c.OnMessage(3, batchReply(3, 1, d, 1, 2))
	c.Flush()
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("completed %v, want [1]", got)
	}
	env.advance(c, time.Second)
	if got := sentSeqs(env.bcast[len(env.bcast)-1]); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("last retransmission %v, want only seq 2", got)
	}
	// Seq 2 has replica 3's reply from before: one more completes it.
	c.OnMessage(0, reply(0, 2, d))
	if got := completedSeqs(c); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("completed %v, want [1 2]", got)
	}
}

// TestNonIncreasingSeqWaitsForDrain: a seq that is not above every seq put
// in flight since the client last drained waits at the head of the queue,
// holding back the seqs behind it, and goes out once nothing is in flight.
func TestNonIncreasingSeqWaitsForDrain(t *testing.T) {
	env := newFakeEnv(4)
	c := New(Config{Client: 1, Broadcast: true})
	c.SetWindow(4)
	c.Submit(tx(5))
	c.Submit(tx(7))
	c.Submit(tx(6)) // below 7
	c.Submit(tx(8))
	c.Start(env)
	c.Flush()
	if len(env.bcast) != 1 || !reflect.DeepEqual(sentSeqs(env.bcast[0]), []uint64{5, 7}) {
		t.Fatalf("first flush sent %v, want [5 7]", env.bcast)
	}
	complete2(c, 7)
	c.Flush()
	if len(env.bcast) != 1 {
		t.Fatalf("seq 6 left with seq 5 in flight: %v", env.bcast)
	}
	complete2(c, 5)
	c.Flush()
	if len(env.bcast) != 2 || !reflect.DeepEqual(sentSeqs(env.bcast[1]), []uint64{6, 8}) {
		t.Fatalf("after the drain sent %v, want [6 8]", env.bcast)
	}
	// A repeat of a completed seq waits the same way, then goes out again.
	c.OnMessage(types.NoReplica, &Submission{Tx: tx(6)})
	c.Flush()
	if len(env.bcast) != 2 {
		t.Fatal("repeated seq left while seqs were in flight")
	}
	complete2(c, 6, 8)
	c.Flush()
	if len(env.bcast) != 3 || !reflect.DeepEqual(sentSeqs(env.bcast[2]), []uint64{6}) {
		t.Fatalf("repeated seq after the drain: sent %v", env.bcast)
	}
}
