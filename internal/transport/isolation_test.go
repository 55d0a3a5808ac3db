package transport

// Failure-isolation tests for the non-blocking TCP transport: a stalled
// peer or client must never delay traffic to anyone else, overflow drops
// must be observable, reconnects must resume delivery, and mismatched wire
// versions must be refused at the handshake.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/types"
)

// stalledListener accepts connections and never reads from them, so the
// peer's kernel buffers fill and its writer goroutine wedges in Write.
type stalledListener struct {
	ln    net.Listener
	conns chan net.Conn
}

func newStalledListener(t *testing.T) *stalledListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stalledListener{ln: ln, conns: make(chan net.Conn, 16)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns <- c // accepted, never read
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for {
			select {
			case c := <-s.conns:
				c.Close()
			default:
				return
			}
		}
	})
	return s
}

func bigPrePrepare() *types.PrePrepare {
	txns := make([]types.Transaction, 64)
	for i := range txns {
		txns[i] = types.Transaction{Client: 1, Seq: uint64(i + 1), Op: make([]byte, 1024)}
	}
	b := &types.Batch{Txns: txns}
	return &types.PrePrepare{View: 1, Round: 1, Digest: b.Digest(), Batch: b}
}

// TestTCPSlowPeerDoesNotDelayOthers: replica 1 accepts but never reads;
// replica 2 is healthy. Every send to 2 must arrive promptly even while 1's
// link is wedged, and no Send may ever block (the queue absorbs the stall).
func TestTCPSlowPeerDoesNotDelayOthers(t *testing.T) {
	stall := newStalledListener(t)
	s2 := newSink()
	t2, err := NewTCP(TCPConfig{Self: 2, Listen: "127.0.0.1:0"}, s2)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()

	t0, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Peers:        map[types.ReplicaID]string{1: stall.ln.Addr().String(), 2: t2.Addr()},
		queueDepth:   256,
		drainTimeout: 100 * time.Millisecond,
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	big := bigPrePrepare() // ~64 KiB per message: wedges the stalled link fast
	const sends = 64       // well under QueueDepth: backpressure never triggers
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sends; i++ {
			if err := t0.Send(1, big); err != nil {
				t.Error(err)
				return
			}
			if err := t0.Send(2, big); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked behind the stalled peer")
	}
	s2.wait(t, sends) // the healthy link saw all traffic despite the stall
}

// TestTCPStalledClientDropsNotBlocks: a client that stops reading fills its
// bounded reply queue; further replies drop (observable counter) while a
// healthy client's replies keep flowing.
func TestTCPStalledClientDropsNotBlocks(t *testing.T) {
	srvSink := newSink()
	srv, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		drainTimeout: 100 * time.Millisecond,
	}, srvSink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The stalled client: speaks a valid header, then never reads.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10) // shrink the sink so the link wedges fast
	}
	if _, err := raw.Write(appendHeader(nil, true, 0, 77, newSalt())); err != nil {
		t.Fatal(err)
	}
	// The server learns client 77 from the stream header alone.
	waitCond(t, 5*time.Second, func() bool { return srv.SendClient(77, bigPrePrepare()) == nil })

	healthySink := newSink()
	healthy, err := NewTCP(TCPConfig{
		IsClient: true, SelfClient: 88,
		Peers: map[types.ReplicaID]string{0: srv.Addr()},
	}, healthySink)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if err := healthy.Send(0, types.NewClientRequest(0, types.Transaction{Client: 88, Seq: 1, Op: []byte("q")})); err != nil {
		t.Fatal(err)
	}
	srvSink.wait(t, 1)

	// Flood the stalled client with large replies while pacing small ones
	// to the healthy client. The stalled link wedges, overflows its
	// clientQueueDepth-deep queue, and drops; every healthy reply still
	// lands promptly. The kernel's socket buffers absorb an unknown number
	// of replies before the writer wedges, so flood in rounds until the
	// first drop rather than for a fixed count.
	big := bigPrePrepare()
	const perRound = 16
	deadline := time.Now().Add(30 * time.Second)
	rounds := 0
	for srv.Stats().ClientDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled client overflowed no queue after %d replies — drop counter stayed 0", rounds*perRound)
		}
		rounds++
		for j := 0; j < perRound; j++ {
			if err := srv.SendClient(77, big); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.SendClient(88, types.NewClientReply(0, 0, 88, 0, types.ZeroDigest, []uint64{uint64(rounds)})); err != nil {
			t.Fatal(err)
		}
		healthySink.wait(t, 1)
	}
	t.Logf("stalled client dropped %d replies; healthy client got all %d", srv.Stats().ClientDropped, rounds)
}

// TestTCPStalledPeerDemotesAfterWriteTimeout: a peer that stays connected
// but stops draining must not wedge senders forever. Once its kernel
// buffers and the outbound queue fill, the writer's next write times out
// (WriteTimeout), the link demotes to drop-while-down, and every blocked
// and future Send completes promptly.
func TestTCPStalledPeerDemotesAfterWriteTimeout(t *testing.T) {
	stall := newStalledListener(t)
	t0, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Peers:        map[types.ReplicaID]string{1: stall.ln.Addr().String()},
		queueDepth:   4,
		writeTimeout: 300 * time.Millisecond,
		drainTimeout: 100 * time.Millisecond,
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	// Establish the link first (a small message flushes fine), so the
	// flood below exercises the connected-then-wedged path, not the
	// never-connected drop path.
	if err := t0.Send(1, types.NewPrepare(0, 0, 0, 1, types.ZeroDigest)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return t0.Stats().MsgsSent >= 1 })

	// Far more than kernel buffers + queue can hold: without demotion the
	// sender would block indefinitely once both fill.
	big := bigPrePrepare()
	const sends = 256
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sends; i++ {
			if err := t0.Send(1, big); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Send wedged behind a connected-but-stalled peer")
	}
	if d := t0.Stats().PeerDropped; d == 0 {
		t.Fatal("demoted link recorded no drops")
	}
}

// TestTCPReconnectResumesDelivery: the destination dies and is reborn on
// the same address; the sender's writer redials with backoff and delivery
// resumes without constructing a new transport.
func TestTCPReconnectResumesDelivery(t *testing.T) {
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0"}, s1)
	if err != nil {
		t.Fatal(err)
	}
	addr := t1.Addr()

	t0, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Peers:               map[types.ReplicaID]string{1: addr},
		reconnectBackoff:    10 * time.Millisecond,
		reconnectBackoffMax: 50 * time.Millisecond,
		drainTimeout:        100 * time.Millisecond,
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	m := types.NewPrepare(0, 0, 1, 2, types.Hash([]byte("r")))
	if err := t0.Send(1, m); err != nil {
		t.Fatal(err)
	}
	s1.wait(t, 1)

	// Kill the destination. Messages sent while it is down are dropped
	// (counted), never block.
	t1.Close()

	// Rebirth on the same address, fresh transport and sink.
	s1b := newSink()
	t1b, err := NewTCP(TCPConfig{Self: 1, Listen: addr}, s1b)
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()

	// Keep sending until the writer notices the dead link, redials, and a
	// message lands. Each Send returns immediately regardless.
	waitCond(t, 10*time.Second, func() bool {
		if err := t0.Send(1, m); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		return s1b.count() > 0
	})
	st := t0.Stats()
	if st.Reconnects == 0 {
		t.Fatal("delivery resumed without a recorded reconnect")
	}
	if st.PeerDropped == 0 {
		t.Fatal("messages sent into the dead link were not counted as dropped")
	}
}

// TestTCPClientDisconnectUnregisters: when a client's connection dies, the
// replica must drop it from the reply-routing map (no unbounded growth
// under client churn) and SendClient must report it unreachable again.
func TestTCPClientDisconnectUnregisters(t *testing.T) {
	srvSink := newSink()
	srv, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0"}, srvSink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewTCP(TCPConfig{
		IsClient: true, SelfClient: 9,
		Peers: map[types.ReplicaID]string{0: srv.Addr()},
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(0, types.NewClientRequest(0, types.Transaction{Client: 9, Seq: 1, Op: []byte("q")})); err != nil {
		t.Fatal(err)
	}
	srvSink.wait(t, 1)
	if err := srv.SendClient(9, types.NewClientReply(0, 0, 9, 0, types.ZeroDigest, []uint64{1})); err != nil {
		t.Fatalf("reply to a connected client failed: %v", err)
	}

	cli.Close()
	waitCond(t, 5*time.Second, func() bool {
		return srv.SendClient(9, types.NewClientReply(0, 0, 9, 0, types.ZeroDigest, []uint64{1})) != nil
	})
	srv.mu.Lock()
	n := len(srv.clientsByID)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("dead client still registered: %d entries", n)
	}
}

// TestTCPRefusesWireVersionMismatch: a peer announcing a different framing
// version must be cut off at the handshake — inbound (we read its header)
// and outbound (we read the header it sends back). The peer speaks v12,
// whose STATE-OFFER lays out its fields differently and whose catalog still
// holds CHECKPOINT-ATTEST, so its state-transfer records would decode as
// garbage or be refused. Its header is this build's except for the
// version, so the reader must refuse it from the version alone.
func TestTCPRefusesWireVersionMismatch(t *testing.T) {
	const v12 = 12
	if WireVersion != 13 {
		t.Fatalf("WireVersion %d: move this test to the new previous version", WireVersion)
	}
	v12Header := func(isClient bool, r types.ReplicaID, c types.ClientID) []byte {
		hdr := appendHeader(nil, isClient, r, c, [saltLen]byte{})
		binary.BigEndian.PutUint16(hdr[4:6], v12)
		return hdr
	}
	srvSink := newSink()
	srv, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0"}, srvSink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Inbound: dial raw, claim v12, then try to push a frame.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(v12Header(false, 3, 0)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return srv.Stats().BadHeader == 1 })
	// The server hung up: the raw conn sees EOF and nothing was delivered.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the mismatched connection open")
	}
	if srvSink.count() != 0 {
		t.Fatal("message from a version-mismatched peer was delivered")
	}

	// Outbound: an older replica answers this client with a v12 header; the
	// client must refuse the stream rather than trust its replies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.ReadFull(c, make([]byte, wireHeaderLen)) // swallow the client's header
		c.Write(v12Header(false, 0, 0))
	}()
	cliSink := newSink()
	cli, err := NewTCP(TCPConfig{
		IsClient: true, SelfClient: 5,
		Peers: map[types.ReplicaID]string{0: ln.Addr().String()},
	}, cliSink)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(0, types.NewClientRequest(0, types.Transaction{Client: 5, Seq: 1, Op: []byte("x")})); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return cli.Stats().BadHeader == 1 })
	if cliSink.count() != 0 {
		t.Fatal("frames from a version-mismatched server were delivered")
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		isClient bool
		r        types.ReplicaID
		c        types.ClientID
	}{
		{false, 7, 0},
		{true, 0, 123456},
	} {
		salt := newSalt()
		buf := appendHeader(nil, tc.isClient, tc.r, tc.c, salt)
		if len(buf) != wireHeaderLen {
			t.Fatalf("header length %d, want %d", len(buf), wireHeaderLen)
		}
		h, err := readHeader(bytesReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if h.version != WireVersion || h.isClient != tc.isClient || h.replica != tc.r || (tc.isClient && h.client != tc.c) || h.salt != salt {
			t.Fatalf("header mangled: %+v", h)
		}
	}
	// Bad magic and bad version both surface ErrWireVersion.
	bad := appendHeader(nil, false, 1, 0, newSalt())
	bad[0] = 'X'
	if _, err := readHeader(bytesReader(bad)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("bad magic: got %v, want ErrWireVersion", err)
	}
	for _, v := range []uint16{3, 4, WireVersion + 1} {
		bad = appendHeader(nil, false, 1, 0, newSalt())
		binary.BigEndian.PutUint16(bad[4:6], v)
		if _, err := readHeader(bytesReader(bad)); !errors.Is(err, ErrWireVersion) {
			t.Fatalf("version %d: got %v, want ErrWireVersion", v, err)
		}
	}
}

type byteSliceReader struct{ b []byte }

func bytesReader(b []byte) io.Reader { return &byteSliceReader{b: b} }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
