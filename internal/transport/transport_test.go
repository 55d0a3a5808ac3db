package transport

import (
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// sink collects delivered messages.
type sink struct {
	mu       sync.Mutex
	replicas []types.ReplicaID
	clients  []types.ClientID
	msgs     []types.Message
	notify   chan struct{}
}

func newSink() *sink { return &sink{notify: make(chan struct{}, 4096)} }

func (s *sink) DeliverReplica(from types.ReplicaID, m types.Message) {
	s.mu.Lock()
	s.replicas = append(s.replicas, from)
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
	s.notify <- struct{}{}
}

func (s *sink) DeliverClient(from types.ClientID, m types.Message) {
	s.mu.Lock()
	s.clients = append(s.clients, from)
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
	s.notify <- struct{}{}
}

func (s *sink) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.notify:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delivery %d/%d", i+1, n)
		}
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) first(t *testing.T) types.Message {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.msgs) == 0 {
		t.Fatal("no messages delivered")
	}
	return s.msgs[0]
}

func TestMemoryHubRoundTrip(t *testing.T) {
	hub := NewMemory()
	a, b := newSink(), newSink()
	ta := hub.AttachReplica(0, a)
	hub.AttachReplica(1, b)

	m := types.NewPrepare(3, 0, 1, 2, types.Hash([]byte("x")))
	if err := ta.Send(1, m); err != nil {
		t.Fatal(err)
	}
	b.wait(t, 1)
	got := b.first(t).(*types.Prepare)
	if got.Round != 2 || b.replicas[0] != 0 {
		t.Fatalf("delivered %+v from %d", got, b.replicas[0])
	}
	if err := ta.Send(9, m); err == nil {
		t.Fatal("send to unattached replica succeeded")
	}
}

func TestMemoryDetachModelsCrash(t *testing.T) {
	hub := NewMemory()
	a, b := newSink(), newSink()
	ta := hub.AttachReplica(0, a)
	hub.AttachReplica(1, b)
	hub.Detach(1)
	if err := ta.Send(1, types.NewPrepare(0, 0, 0, 1, types.ZeroDigest)); err == nil {
		t.Fatal("send to detached replica succeeded")
	}
}

// blockingEndpoint wedges every delivery until released — a node whose
// event loop has stopped draining.
type blockingEndpoint struct{ release chan struct{} }

func (b *blockingEndpoint) DeliverReplica(types.ReplicaID, types.Message) { <-b.release }
func (b *blockingEndpoint) DeliverClient(types.ClientID, types.Message)   { <-b.release }

// TestMemorySendIsEnqueueOnly pins the non-blocking contract of the
// in-process hub: a destination endpoint stuck inside Deliver must not make
// Send block (until the bounded queue fills), and traffic to other
// endpoints must flow untouched.
func TestMemorySendIsEnqueueOnly(t *testing.T) {
	hub := NewMemory()
	stuck := &blockingEndpoint{release: make(chan struct{})}
	defer close(stuck.release)
	fast := newSink()
	ta := hub.AttachReplica(0, newSink())
	hub.AttachReplica(1, stuck)
	hub.AttachReplica(2, fast)

	m := types.NewPrepare(0, 0, 0, 1, types.ZeroDigest)
	const sends = 64 // well under MemQueueDepth: never backpressures
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sends; i++ {
			if err := ta.Send(1, m); err != nil {
				t.Error(err)
				return
			}
			if err := ta.Send(2, m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a stuck endpoint")
	}
	fast.wait(t, sends)
}

// TestMemoryClientOverflowDrops pins the client-link drop policy of the
// in-process hub, with the drop counter observable.
func TestMemoryClientOverflowDrops(t *testing.T) {
	hub := NewMemory()
	stuck := &blockingEndpoint{release: make(chan struct{})}
	defer close(stuck.release)
	ta := hub.AttachReplica(0, newSink())
	hub.AttachClient(7, stuck)

	reply := types.NewClientReply(0, 0, 7, 0, types.ZeroDigest, []uint64{1})
	// One delivery in flight + a full queue, then every further send drops.
	const sends = MemClientQueueDepth + 16
	for i := 0; i < sends; i++ {
		if err := ta.SendClient(7, reply); err != nil {
			t.Fatal(err)
		}
	}
	if d := hub.Dropped(); d == 0 {
		t.Fatal("overflowing a client queue recorded no drops")
	}
}

func tcpPair(t *testing.T, auth0, auth1 crypto.Authenticator) (*TCP, *TCP, *sink, *sink) {
	t.Helper()
	s0, s1 := newSink(), newSink()
	t0, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Auth: auth0}, s0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: auth1}, s1)
	if err != nil {
		t.Fatal(err)
	}
	t0.SetPeers(map[types.ReplicaID]string{1: t1.Addr()})
	t1.SetPeers(map[types.ReplicaID]string{0: t0.Addr()})
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1, s0, s1
}

func TestTCPRoundTrip(t *testing.T) {
	t0, _, _, s1 := tcpPair(t, nil, nil)
	b := &types.Batch{Txns: []types.Transaction{{Client: 7, Seq: 1, Op: []byte("hello")}}}
	pp := &types.PrePrepare{View: 1, Round: 5, Digest: b.Digest(), Batch: b}
	pp.Inst = 2
	if err := t0.Send(1, pp); err != nil {
		t.Fatal(err)
	}
	s1.wait(t, 1)
	got := s1.first(t).(*types.PrePrepare)
	if got.Round != 5 || got.Batch == nil || got.Batch.Digest() != b.Digest() {
		t.Fatalf("round-trip mangled the message: %+v", got)
	}
	if s1.replicas[0] != 0 {
		t.Fatalf("sender %d, want 0", s1.replicas[0])
	}
}

// TestTCPAuthenticationRejectsForgery: a sender with the wrong MAC secret
// claims replica 0's identity; its records must be dropped while a properly
// keyed sender's records (same claimed identity) are delivered.
func TestTCPAuthenticationRejectsForgery(t *testing.T) {
	good := []byte("shared-secret")
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewMAC(crypto.PartyID(1), good)}, s1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	peers := map[types.ReplicaID]string{1: t1.Addr()}

	evil, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: peers,
		Auth: crypto.NewMAC(crypto.PartyID(0), []byte("wrong-secret")),
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	if err := evil.Send(1, types.NewCommit(0, 0, 0, 2, types.Hash([]byte("forged")))); err != nil {
		t.Fatal(err)
	}

	honest, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: peers,
		Auth: crypto.NewMAC(crypto.PartyID(0), good),
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if err := honest.Send(1, types.NewCommit(0, 0, 0, 3, types.Hash([]byte("ok")))); err != nil {
		t.Fatal(err)
	}

	s1.wait(t, 1)
	got := s1.first(t).(*types.Commit)
	if got.Round != 3 {
		t.Fatalf("forged commit delivered: %+v", got)
	}
	waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects >= 1 })
	if n := s1.count(); n != 1 {
		t.Fatalf("delivered %d frames, want 1 (forgery dropped)", n)
	}
}

func TestTCPClientReplyPath(t *testing.T) {
	srvSink := newSink()
	srv, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0"}, srvSink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cliSink := newSink()
	cli, err := NewTCP(TCPConfig{
		IsClient: true, SelfClient: 42,
		Peers: map[types.ReplicaID]string{0: srv.Addr()},
	}, cliSink)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	req := types.NewClientRequest(0, types.Transaction{Client: 42, Seq: 1, Op: []byte("q")})
	if err := cli.Send(0, req); err != nil {
		t.Fatal(err)
	}
	srvSink.wait(t, 1)
	if srvSink.clients[0] != 42 {
		t.Fatalf("client identity %d, want 42", srvSink.clients[0])
	}

	reply := types.NewClientReply(0, 0, 42, 0, types.Hash([]byte("r")), []uint64{1, 2})
	if err := srv.SendClient(42, reply); err != nil {
		t.Fatal(err)
	}
	cliSink.wait(t, 1)
	if got := cliSink.first(t).(*types.ClientReply); !reflect.DeepEqual(got, reply) {
		t.Fatalf("reply mangled: %+v", got)
	}
}

// TestTCPBatchesBursts: a burst of sends to one destination must coalesce
// into fewer write batches than messages — the multi-message framing at
// work (exact counts depend on scheduling, so only the ratio is asserted).
func TestTCPBatchesBursts(t *testing.T) {
	t0, _, _, s1 := tcpPair(t, nil, nil)
	const burst = 512
	m := types.NewPrepare(0, 0, 1, 2, types.Hash([]byte("b")))
	for i := 0; i < burst; i++ {
		if err := t0.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	s1.wait(t, burst)
	// The peer can read a frame before the writer's conn.Write returns and
	// counts it, so wait for the counters to catch up with the delivery.
	waitCond(t, 5*time.Second, func() bool { return t0.Stats().MsgsSent >= burst })
	st := t0.Stats()
	if st.MsgsSent != burst {
		t.Fatalf("sent %d msgs, want %d", st.MsgsSent, burst)
	}
	if st.BatchesSent >= burst {
		t.Fatalf("no batching: %d batches for %d msgs", st.BatchesSent, burst)
	}
	t.Logf("burst of %d coalesced into %d batches (%.1f msgs/batch)",
		burst, st.BatchesSent, float64(st.MsgsSent)/float64(st.BatchesSent))
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[types.ReplicaID]string
		err  bool
	}{
		{in: "0=:7000, 1=host:7001", want: map[types.ReplicaID]string{0: ":7000", 1: "host:7001"}},
		{in: "0=:7000,1:7001", err: true}, // entry without '='
		{in: "x=:7000", err: true},        // non-numeric id
		{in: "", err: true},
	} {
		got, err := ParsePeers(tc.in)
		if (err != nil) != tc.err {
			t.Fatalf("ParsePeers(%q): err %v, want error %v", tc.in, err, tc.err)
		}
		if !tc.err && !maps.Equal(got, tc.want) {
			t.Fatalf("ParsePeers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
