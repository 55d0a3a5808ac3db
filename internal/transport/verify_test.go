package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/types"
)

// TestTCPDSRejectsWrongSigner: a sender holding a different dev keyring (so
// its ED25519 keys derive from another secret) claims replica 0's identity;
// every record must be rejected while a properly keyed sender is delivered.
// This exercises the verify worker pool — DS defaults to pooled
// verification.
func TestTCPDSRejectsWrongSigner(t *testing.T) {
	good := []byte("ds-secret")
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewDSDev(crypto.PartyID(1), good)}, s1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	peers := map[types.ReplicaID]string{1: t1.Addr()}

	evil, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: peers,
		Auth: crypto.NewDSDev(crypto.PartyID(0), []byte("other-secret")),
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
		Auth: crypto.NewDSDev(crypto.PartyID(0), good),
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if err := honest.Send(1, types.NewCommit(0, 0, 0, 3, types.Hash([]byte("ok")))); err != nil {
		t.Fatal(err)
	}

	s1.wait(t, 1)
	if got := s1.first(t).(*types.Commit); got.Round != 3 {
		t.Fatalf("forged commit delivered: %+v", got)
	}
	waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects >= 1 })
	if n := s1.count(); n != 1 {
		t.Fatalf("delivered %d messages, want 1 (forgery dropped)", n)
	}
	if st := t1.Stats(); st.VerifiedFrames == 0 {
		t.Fatal("DS transport did not route frames through the verify pool")
	}
}

// TestTCPRejectsTruncatedTag injects a raw wire stream whose record carries
// only a prefix of the correct MAC: a tag that authenticates nothing must be
// rejected even though its bytes match the genuine tag's prefix.
func TestTCPRejectsTruncatedTag(t *testing.T) {
	secret := []byte("trunc-secret")
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewMAC(crypto.PartyID(1), secret)}, s1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	conn, err := net.Dial("tcp", t1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	m := types.NewCommit(0, 0, 0, 7, types.Hash([]byte("trunc")))
	auth := crypto.NewMAC(crypto.PartyID(0), secret)
	payload := m.AuthPayload(nil)
	tag := auth.Tag(crypto.PartyID(1), payload)[:16] // genuine prefix, truncated

	msgBytes, err := types.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := appendHeader(nil, false, 0, 0) // claims replica 0
	frameStart := len(stream)
	stream = append(stream, 0, 0, 0, 0) // frameLen, patched below
	recStart := len(stream)
	stream = append(stream, 0, 0, 0, 0) // recLen, patched below
	stream = append(stream, byte(len(tag)))
	stream = append(stream, tag...)
	stream = append(stream, msgBytes...)
	binary.BigEndian.PutUint32(stream[recStart:], uint32(len(stream)-recStart-4))
	binary.BigEndian.PutUint32(stream[frameStart:], uint32(len(stream)-frameStart-4))
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects >= 1 })
	if n := s1.count(); n != 0 {
		t.Fatalf("delivered %d messages, want 0 (truncated tag accepted)", n)
	}
}

// TestTCPVerifyPoolPreservesOrder floods one link through an 8-worker verify
// pool and asserts messages reach the endpoint exactly in send order:
// workers may finish out of order, the releaser may not.
func TestTCPVerifyPoolPreservesOrder(t *testing.T) {
	secret := []byte("order-secret")
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{
		Self: 1, Listen: "127.0.0.1:0",
		Auth: crypto.NewDSDev(crypto.PartyID(1), secret), VerifyWorkers: 8,
	}, s1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Peers: map[types.ReplicaID]string{1: t1.Addr()},
		Auth:  crypto.NewDSDev(crypto.PartyID(0), secret),
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	const total = 300
	for i := 0; i < total; i++ {
		if err := t0.Send(1, types.NewPrepare(0, 0, 0, types.Round(i), types.ZeroDigest)); err != nil {
			t.Fatal(err)
		}
	}
	s1.wait(t, total)
	s1.mu.Lock()
	defer s1.mu.Unlock()
	for i, m := range s1.msgs {
		if got := m.(*types.Prepare).Round; got != types.Round(i) {
			t.Fatalf("message %d has round %d: pool reordered the link", i, got)
		}
	}
}

// TestTCPAuthDemotion: after AuthFailLimit consecutive forged records the
// inbound link must be demoted (closed), observable via Stats. Runs on both
// the pooled (DS) and inline (MAC) verification paths.
func TestTCPAuthDemotion(t *testing.T) {
	for _, tc := range []struct {
		name string
		auth func(party uint32, secret []byte) crypto.Authenticator
	}{
		{"pooled_ds", func(p uint32, s []byte) crypto.Authenticator { return crypto.NewDSDev(p, s) }},
		{"inline_mac", func(p uint32, s []byte) crypto.Authenticator { return crypto.NewMAC(p, s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s1 := newSink()
			t1, err := NewTCP(TCPConfig{
				Self: 1, Listen: "127.0.0.1:0",
				Auth: tc.auth(crypto.PartyID(1), []byte("good")),
			}, s1)
			if err != nil {
				t.Fatal(err)
			}
			defer t1.Close()
			evil, err := NewTCP(TCPConfig{
				Self: 0, Listen: "127.0.0.1:0",
				Peers: map[types.ReplicaID]string{1: t1.Addr()},
				Auth:  tc.auth(crypto.PartyID(0), []byte("bad")),
			}, newSink())
			if err != nil {
				t.Fatal(err)
			}
			defer evil.Close()

			// Keep sending until the receiver demotes; the evil side's
			// writer survives the close via its reconnect path.
			deadline := time.Now().Add(5 * time.Second)
			m := types.NewCommit(0, 0, 0, 1, types.ZeroDigest)
			for t1.Stats().AuthDemotions == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no demotion after %d rejects", t1.Stats().AuthRejects)
				}
				if err := evil.Send(1, m); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
			if st := t1.Stats(); st.AuthRejects < AuthFailLimit {
				t.Fatalf("demoted after only %d rejects, limit %d", st.AuthRejects, AuthFailLimit)
			}
			if n := s1.count(); n != 0 {
				t.Fatalf("delivered %d forged messages", n)
			}
		})
	}
}

// TestTCPDigestCacheHitsOnRetransmit: the same client request delivered
// twice (a retransmission) must verify once and hit the digest cache the
// second time — and still be delivered both times (the cache dedupes crypto
// work, not messages).
func TestTCPDigestCacheHitsOnRetransmit(t *testing.T) {
	secret := []byte("cache-secret")
	cache := digestcache.New(1024)
	srvSink := newSink()
	srv, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0",
		Auth: crypto.NewDSDev(crypto.PartyID(0), secret), DigestCache: cache,
	}, srvSink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewTCP(TCPConfig{
		IsClient: true, SelfClient: 42,
		Peers: map[types.ReplicaID]string{0: srv.Addr()},
		Auth:  crypto.NewDSDev(crypto.ClientPartyID(42), secret),
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	req := types.NewClientRequest(0, types.Transaction{Client: 42, Seq: 1, Op: []byte("put")})
	if err := cli.Send(0, req); err != nil {
		t.Fatal(err)
	}
	srvSink.wait(t, 1)
	if err := cli.Send(0, req); err != nil { // retransmission
		t.Fatal(err)
	}
	srvSink.wait(t, 1)

	st := srv.Stats()
	if st.DigestMisses == 0 {
		t.Fatal("first delivery did not consult the digest cache")
	}
	waitCond(t, 5*time.Second, func() bool { return srv.Stats().DigestHits >= 1 })
	if n := srvSink.count(); n != 2 {
		t.Fatalf("delivered %d messages, want 2", n)
	}
}
