package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/types"
)

// TestTCPDSRejectsWrongSigner: a sender holding a different dev keyring (so
// its ED25519 keys derive from another secret) claims replica 0's identity;
// every record must be rejected while a properly keyed sender is delivered.
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
}

// sealedFrame encodes msgs as one frame sealed by auth for party `to`,
// exactly as an honest writer frames them.
func sealedFrame(t *testing.T, auth crypto.Authenticator, to uint32, msgs ...types.Message) []byte {
	t.Helper()
	frame := []byte{0, 0, 0, 0}
	var err error
	for _, m := range msgs {
		if frame, err = appendRecord(frame, m); err != nil {
			t.Fatal(err)
		}
	}
	if frame, err = sealFrame(frame, auth, to); err != nil {
		t.Fatal(err)
	}
	return frame
}

// dialAs0 opens a raw connection to t1 that announces replica 0.
func dialAs0(t *testing.T, t1 *TCP) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", t1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(appendHeader(nil, false, 0, 0)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTCPRefusesBadFrames injects hand-built frames whose tag cannot hold:
// each must be dropped whole and counted, and must not desync the stream —
// a genuine frame right behind it is still delivered.
func TestTCPRefusesBadFrames(t *testing.T) {
	secret := []byte("frame-secret")
	m := types.NewCommit(0, 0, 0, 7, types.Hash([]byte("frame")))
	for _, tc := range []struct {
		name  string
		forge func(frame []byte) []byte // frame includes its frameLen word
	}{
		{"truncated_tag", func(f []byte) []byte {
			// A genuine tag prefix authenticates nothing.
			records, tag, _ := openFrame(f[4:])
			out := append(append([]byte{0, 0, 0, 0}, records...), tag[:16]...)
			out = append(out, 16)
			binary.BigEndian.PutUint32(out, uint32(len(out)-4))
			return out
		}},
		{"tag_len_past_frame", func(f []byte) []byte {
			f[len(f)-1] = byte(len(f) - 4)
			return f
		}},
		{"flipped_record_byte", func(f []byte) []byte {
			f[4+4+1] ^= 0x01 // first byte of the record's instance field
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s1 := newSink()
			t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewMAC(crypto.PartyID(1), secret)}, s1)
			if err != nil {
				t.Fatal(err)
			}
			defer t1.Close()
			auth := crypto.NewMAC(crypto.PartyID(0), secret)
			stream := tc.forge(sealedFrame(t, auth, crypto.PartyID(1), m))
			stream = append(stream, sealedFrame(t, auth, crypto.PartyID(1), m)...)
			if _, err := dialAs0(t, t1).Write(stream); err != nil {
				t.Fatal(err)
			}
			s1.wait(t, 1)
			if st := t1.Stats(); st.AuthRejects != 1 || st.DecodeErrs != 0 {
				t.Fatalf("stats %+v, want exactly 1 auth reject and no decode errors", st)
			}
			if n := s1.count(); n != 1 {
				t.Fatalf("delivered %d messages, want only the genuine one", n)
			}
		})
	}
}

// captureStream returns the exact bytes an honest node keyed with auth
// writes to replica 1 when it sends m: its stream header and m's frame.
func captureStream(t *testing.T, auth crypto.Authenticator, m types.Message) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	snd, err := NewTCP(TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Auth: auth,
		Peers: map[types.ReplicaID]string{1: ln.Addr().String()},
	}, newSink())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.Send(1, m); err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	stream := make([]byte, wireHeaderLen+4)
	if _, err := io.ReadFull(c, stream); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, binary.BigEndian.Uint32(stream[wireHeaderLen:]))
	if _, err := io.ReadFull(c, frame); err != nil {
		t.Fatal(err)
	}
	return append(stream, frame...)
}

// forgeStream swaps genuine's encoding in a captured stream for forged's
// without re-tagging. The frame length and the record length, the two
// words after the header, move by the size difference; the tag stays.
func forgeStream(t *testing.T, stream []byte, genuine, forged types.Message) []byte {
	t.Helper()
	g, err := types.MarshalMessage(genuine)
	if err != nil {
		t.Fatal(err)
	}
	f, err := types.MarshalMessage(forged)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(stream, g)
	if at < 0 {
		t.Fatal("message encoding not found in the captured stream")
	}
	out := append(append(append([]byte(nil), stream[:at]...), f...), stream[at+len(g):]...)
	for _, off := range []int{wireHeaderLen, wireHeaderLen + 4} {
		binary.BigEndian.PutUint32(out[off:], uint32(int(binary.BigEndian.Uint32(out[off:]))+len(f)-len(g)))
	}
	return out
}

// TestTCPTagCoversEveryDecodedField: the tag must cover every field the
// receiver decodes. A genuine FAILURE frame whose State[0].View is raised
// and State[0].Batch dropped, and a genuine CHECKPOINT frame with one op
// byte of a carried proposal flipped, are replayed without re-tagging: the
// recovery path picks the proposal to adopt from exactly those fields, so
// both must be refused, over MAC and DS.
func TestTCPTagCoversEveryDecodedField(t *testing.T) {
	b := &types.Batch{Txns: []types.Transaction{{Client: 7, Seq: 1, Op: []byte("op-bytes")}}}
	ap := types.AcceptedProposal{Round: 5, View: 1, Digest: b.Digest(), Batch: b, Prepared: true}
	failure := &types.Failure{Header: types.Header{Inst: 1}, Replica: 0, Round: 5, State: []types.AcceptedProposal{ap}}
	forgedFailure := *failure
	forgedFailure.State = []types.AcceptedProposal{ap}
	forgedFailure.State[0].View = 9
	forgedFailure.State[0].Batch = nil

	ckp := &types.Checkpoint{Header: types.Header{Inst: 1}, Replica: 0, Round: 8, State: types.Hash([]byte("s")), Proposals: []types.AcceptedProposal{ap}}
	forgedCkp := *ckp
	flipped := &types.Batch{Txns: []types.Transaction{b.Txns[0]}}
	flipped.Txns[0].Op = append([]byte(nil), b.Txns[0].Op...)
	flipped.Txns[0].Op[0] ^= 0x01
	forgedCkp.Proposals = []types.AcceptedProposal{ap}
	forgedCkp.Proposals[0].Batch = flipped

	secret := []byte("field-secret")
	for _, scheme := range []struct {
		name string
		auth func(party uint32) crypto.Authenticator
	}{
		{"mac", func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, secret) }},
		{"ds", func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, secret) }},
	} {
		for _, msg := range []struct {
			name            string
			genuine, forged types.Message
		}{
			{"failure_state", failure, &forgedFailure},
			{"checkpoint_proposals", ckp, &forgedCkp},
		} {
			t.Run(scheme.name+"/"+msg.name, func(t *testing.T) {
				genuine := captureStream(t, scheme.auth(crypto.PartyID(0)), msg.genuine)
				forged := forgeStream(t, genuine, msg.genuine, msg.forged)

				s1 := newSink()
				t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: scheme.auth(crypto.PartyID(1))}, s1)
				if err != nil {
					t.Fatal(err)
				}
				defer t1.Close()
				for _, stream := range [][]byte{genuine, forged} {
					conn, err := net.Dial("tcp", t1.Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					if _, err := conn.Write(stream); err != nil {
						t.Fatal(err)
					}
				}
				waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects >= 1 })
				s1.wait(t, 1)
				if n := s1.count(); n != 1 {
					t.Fatalf("delivered %d messages, want only the genuine one", n)
				}
				if got := s1.first(t); !reflect.DeepEqual(got, msg.genuine) {
					t.Fatalf("delivered %+v, want the genuine message", got)
				}
			})
		}
	}
}

// TestTCPDeliversLinkInOrder floods one signed link and asserts messages
// reach the endpoint exactly in send order: the consensus layer depends on
// per-link order, and verification must not disturb it.
func TestTCPDeliversLinkInOrder(t *testing.T) {
	secret := []byte("order-secret")
	s1 := newSink()
	t1, err := NewTCP(TCPConfig{
		Self: 1, Listen: "127.0.0.1:0",
		Auth: crypto.NewDSDev(crypto.PartyID(1), secret),
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
			t.Fatalf("message %d has round %d: the link was reordered", i, got)
		}
	}
}

// TestTCPAuthDemotion: the inbound link must be demoted (closed) on exactly
// the AuthFailLimit-th consecutive forged frame, observable via Stats; a
// genuine frame in between restarts the count. Runs under both schemes.
func TestTCPAuthDemotion(t *testing.T) {
	for _, tc := range []struct {
		name string
		auth func(party uint32, secret []byte) crypto.Authenticator
	}{
		{"ds", func(p uint32, s []byte) crypto.Authenticator { return crypto.NewDSDev(p, s) }},
		{"mac", func(p uint32, s []byte) crypto.Authenticator { return crypto.NewMAC(p, s) }},
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
			m := types.NewCommit(0, 0, 0, 1, types.ZeroDigest)
			forged := sealedFrame(t, tc.auth(crypto.PartyID(0), []byte("bad")), crypto.PartyID(1), m)
			genuine := sealedFrame(t, tc.auth(crypto.PartyID(0), []byte("good")), crypto.PartyID(1), m)
			conn := dialAs0(t, t1)
			write := func(frame []byte, times int) {
				t.Helper()
				for i := 0; i < times; i++ {
					if _, err := conn.Write(frame); err != nil {
						t.Fatal(err)
					}
				}
			}

			// One short of the limit, a genuine frame, one short again:
			// no demotion, and the genuine frame is delivered.
			write(forged, AuthFailLimit-1)
			write(genuine, 1)
			write(forged, AuthFailLimit-1)
			waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects == 2*(AuthFailLimit-1) })
			s1.wait(t, 1)
			if st := t1.Stats(); st.AuthDemotions != 0 {
				t.Fatalf("demoted after a broken streak: %+v", st)
			}

			write(forged, 1)
			waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthDemotions == 1 })
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("demoted link still open")
			}
			if st := t1.Stats(); st.AuthRejects != 2*AuthFailLimit-1 || st.AuthDemotions != 1 {
				t.Fatalf("stats %+v after demotion", st)
			}
			if n := s1.count(); n != 1 {
				t.Fatalf("delivered %d messages, want only the genuine one", n)
			}
		})
	}
}

// TestTCPDigestCacheHitsOnRetransmit: the same client request sent twice
// (a retransmission, so a byte-identical frame) must verify once and hit the
// digest cache the second time — and still be delivered both times (the
// cache dedupes crypto work, not messages). The cache applies under every
// scheme.
func TestTCPDigestCacheHitsOnRetransmit(t *testing.T) {
	secret := []byte("cache-secret")
	for _, tc := range []struct {
		name string
		auth func(party uint32) crypto.Authenticator
	}{
		{"mac", func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, secret) }},
		{"ds", func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, secret) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvSink := newSink()
			srv, err := NewTCP(TCPConfig{
				Self: 0, Listen: "127.0.0.1:0",
				Auth: tc.auth(crypto.PartyID(0)), DigestCache: digestcache.New(1024),
			}, srvSink)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			cli, err := NewTCP(TCPConfig{
				IsClient: true, SelfClient: 42,
				Peers: map[types.ReplicaID]string{0: srv.Addr()},
				Auth:  tc.auth(crypto.ClientPartyID(42)),
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

			if st := srv.Stats(); st.DigestMisses == 0 {
				t.Fatal("first delivery did not consult the digest cache")
			}
			waitCond(t, 5*time.Second, func() bool { return srv.Stats().DigestHits >= 1 })
			if n := srvSink.count(); n != 2 {
				t.Fatalf("delivered %d messages, want 2", n)
			}
		})
	}
}
