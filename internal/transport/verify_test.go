package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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

// writerEnd returns the sealing end of the stream from party `from`, keyed
// with auth, to party `to` whose header carries salt.
func writerEnd(t *testing.T, auth crypto.Authenticator, from, to uint32, salt [saltLen]byte) *linkAuth {
	t.Helper()
	la, err := newLinkAuth(auth, from, to, false, salt)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

// readerEnd returns the checking end, at party self keyed with auth, of the
// stream from party `from` whose header carries salt.
func readerEnd(t *testing.T, auth crypto.Authenticator, self, from uint32, salt [saltLen]byte) *linkAuth {
	t.Helper()
	la, err := newLinkAuth(auth, self, from, true, salt)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

// frameOn encodes msgs as the next frame of w's stream, exactly as an
// honest writer frames and seals them.
func frameOn(t *testing.T, w *linkAuth, msgs ...types.Message) []byte {
	t.Helper()
	frame := []byte{0, 0, 0, 0}
	var err error
	for _, m := range msgs {
		if frame, err = appendRecord(frame, m); err != nil {
			t.Fatal(err)
		}
	}
	if frame, err = w.sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// countingAuth counts the Tag calls of the authenticator it wraps and keeps
// its scheme. It forwards like the benchmark harness's timing wrapper, so a
// stream key derived through it must equal the one the inner authenticator
// derives.
type countingAuth struct {
	crypto.Authenticator
	tags atomic.Int64
}

func (a *countingAuth) Tag(to uint32, payload []byte) []byte {
	a.tags.Add(1)
	return a.Authenticator.Tag(to, payload)
}

// receiverVerifies reports whether reader end r accepts frame (with its
// frameLen word) as the next frame of its stream.
func receiverVerifies(r *linkAuth, frame []byte) bool {
	records, tag, ok := openFrame(frame[4:])
	return r.checkFrame(records, tag, ok)
}

// TestSealFrameSharesDSTagsOnly: three peer writers sealing the same records
// cost one signature under DS, because the DS tag does not name its
// receiver. Under MAC the Authenticator makes one tag per stream, its key,
// and none per frame. Different DS records cost one signature each. Every
// sealed frame, the shared signature included, verifies at its receiver,
// and a flipped record byte is refused.
func TestSealFrameSharesDSTagsOnly(t *testing.T) {
	secret := []byte("seal-secret")
	vote := func(round types.Round) types.Message {
		return types.NewCommit(0, 0, 0, round, types.Hash([]byte("seal")))
	}
	peers := []uint32{1, 2, 3}
	for _, tc := range []struct {
		name                     string
		auth                     func(party uint32) crypto.Authenticator
		keyTags, sameTags, diffs int64
	}{
		{"ds", func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, secret) }, 0, 1, int64(len(peers))},
		{"mac", func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, secret) }, int64(len(peers)), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auth := &countingAuth{Authenticator: tc.auth(crypto.PartyID(0))}
			memo := newTagMemo(auth)
			if (memo != nil) != (tc.name == "ds") {
				t.Fatalf("tag memo %v for scheme %v", memo != nil, auth.Scheme())
			}
			salts := make([][saltLen]byte, len(peers))
			writers := make([]*linkAuth, len(peers))
			for i, p := range peers {
				memo.addWriter()
				salts[i] = newSalt()
				writers[i] = writerEnd(t, auth, crypto.PartyID(0), p, salts[i])
				writers[i].memo = memo
			}
			if got := auth.tags.Load(); got != tc.keyTags {
				t.Fatalf("%d streams made %d tags, want %d", len(peers), got, tc.keyTags)
			}
			frames := make([][]byte, len(peers))
			for i := range peers {
				frames[i] = frameOn(t, writers[i], vote(1), vote(2))
			}
			if got := auth.tags.Load() - tc.keyTags; got != tc.sameTags {
				t.Fatalf("%d peers sealing identical records made %d tags, want %d", len(peers), got, tc.sameTags)
			}
			for i := range peers {
				frameOn(t, writers[i], vote(types.Round(10+i)))
			}
			if got := auth.tags.Load() - tc.keyTags - tc.sameTags; got != tc.diffs {
				t.Fatalf("%d distinct frames made %d tags, want %d", len(peers), got, tc.diffs)
			}
			for i, p := range peers {
				if !receiverVerifies(readerEnd(t, tc.auth(p), p, crypto.PartyID(0), salts[i]), frames[i]) {
					t.Fatalf("peer %d refused its frame", p)
				}
				bad := append([]byte(nil), frames[i]...)
				bad[4+4+1] ^= 0x01 // first byte of the first record's instance field
				if receiverVerifies(readerEnd(t, tc.auth(p), p, crypto.PartyID(0), salts[i]), bad) {
					t.Fatalf("peer %d accepted a frame with a flipped record byte", p)
				}
			}
		})
	}
}

// TestTagMemoConcurrentWriters: writers sealing the same frames at once
// through one memo each append exactly the signature signing would give,
// and the memo signs each distinct frame at least once and at most once per
// writer.
func TestTagMemoConcurrentWriters(t *testing.T) {
	const writers, frames = 3, 200
	secret := []byte("memo-secret")
	auth := &countingAuth{Authenticator: crypto.NewDSDev(crypto.PartyID(0), secret)}
	direct := crypto.NewDSDev(crypto.PartyID(0), secret)
	memo := newTagMemo(auth)
	for range writers {
		memo.addWriter()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frames {
				var d [sha256.Size]byte
				frameDigest(&d, []byte(fmt.Sprintf("frame %d", i)))
				if got := memo.tag(auth, uint32(w+1), &d); !bytes.Equal(got, direct.Tag(0, d[:])) {
					t.Errorf("writer %d frame %d: memo tag differs from a fresh signature", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := auth.tags.Load(); n < frames || n > writers*frames {
		t.Fatalf("%d writers sealing %d shared frames made %d signatures", writers, frames, n)
	}
}

// TestFrameTagRefusesUnprefixedDigest: a tag over the bare SHA-256 of the
// records, made with the sender's genuine key, is refused. Only a stream
// tag (MAC) or a signature over the domain-prefixed frame digest (DS)
// authenticates a frame, so nothing else the same keys sign can be replayed
// as one.
func TestFrameTagRefusesUnprefixedDigest(t *testing.T) {
	secret := []byte("domain-secret")
	for _, mk := range []func(party uint32) crypto.Authenticator{
		func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, secret) },
		func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, secret) },
	} {
		sender, salt := mk(crypto.PartyID(0)), newSalt()
		recv := func() *linkAuth {
			return readerEnd(t, mk(crypto.PartyID(1)), crypto.PartyID(1), crypto.PartyID(0), salt)
		}
		frame, err := appendRecord([]byte{0, 0, 0, 0}, types.NewCommit(0, 0, 0, 1, types.ZeroDigest))
		if err != nil {
			t.Fatal(err)
		}
		bare := sha256.Sum256(frame[4:])
		tag := sender.Tag(crypto.PartyID(1), bare[:])
		forged := append(append(append([]byte(nil), frame...), tag...), byte(len(tag)))
		binary.BigEndian.PutUint32(forged, uint32(len(forged)-4))
		if receiverVerifies(recv(), forged) {
			t.Fatalf("%v: tag over the unprefixed digest accepted", sender.Scheme())
		}
		genuine, err := writerEnd(t, sender, crypto.PartyID(0), crypto.PartyID(1), salt).sealFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !receiverVerifies(recv(), genuine) {
			t.Fatalf("%v: genuine frame refused", sender.Scheme())
		}
	}
}

// dialAs0 opens a raw connection to t1 whose stream header announces
// replica 0 and carries salt.
func dialAs0(t *testing.T, t1 *TCP, salt [saltLen]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", t1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(appendHeader(nil, false, 0, 0, salt)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTCPRefusesBadFrames injects hand-built frames whose tag cannot hold:
// each must be dropped whole and counted, and must not desync the stream —
// a genuine frame right behind it, sealed at the next position, is still
// delivered.
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
			out := append(append([]byte{0, 0, 0, 0}, records...), tag[:8]...)
			out = append(out, 8)
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
			salt := newSalt()
			conn := dialAs0(t, t1, salt)
			w := writerEnd(t, crypto.NewMAC(crypto.PartyID(0), secret), crypto.PartyID(0), crypto.PartyID(1), salt)
			stream := tc.forge(frameOn(t, w, m))
			stream = append(stream, frameOn(t, w, m)...)
			if _, err := conn.Write(stream); err != nil {
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

// TestTCPRefusesLyingStream: on a MAC link a frame authenticates only at its
// own position of its own stream. Each lie below is refused, counted and
// delivers nothing, and the genuine frames around it still arrive, in
// order: the reader stays in step with the writer past every refused frame.
func TestTCPRefusesLyingStream(t *testing.T) {
	secret := []byte("stream-secret")
	vote := func(round types.Round) types.Message {
		return types.NewCommit(0, 0, 0, round, types.Hash([]byte("stream")))
	}
	for _, tc := range []struct {
		name string
		// lie writes the stream after its header, sealing with w (the
		// genuine writer end for salt), and returns the rounds the reader
		// must deliver and the frames it must refuse.
		lie func(t *testing.T, w *linkAuth, salt [saltLen]byte) (stream []byte, rounds []types.Round, refused uint64)
	}{
		{"replayed_later", func(t *testing.T, w *linkAuth, _ [saltLen]byte) ([]byte, []types.Round, uint64) {
			f0 := frameOn(t, w, vote(0))
			f1 := frameOn(t, w, vote(1))
			w.seq++ // position 2 carries the replay
			return slices.Concat(f0, f1, f0, frameOn(t, w, vote(3))), []types.Round{0, 1, 3}, 1
		}},
		{"spliced_from_other_stream", func(t *testing.T, w *linkAuth, _ [saltLen]byte) ([]byte, []types.Round, uint64) {
			other := writerEnd(t, crypto.NewMAC(crypto.PartyID(0), secret), crypto.PartyID(0), crypto.PartyID(1), newSalt())
			f0 := frameOn(t, w, vote(0))
			other.seq = 1 // the right position, the wrong stream
			spliced := frameOn(t, other, vote(1))
			w.seq++
			return slices.Concat(f0, spliced, frameOn(t, w, vote(2))), []types.Round{0, 2}, 1
		}},
		{"swapped", func(t *testing.T, w *linkAuth, _ [saltLen]byte) ([]byte, []types.Round, uint64) {
			f0 := frameOn(t, w, vote(0))
			f1 := frameOn(t, w, vote(1))
			return slices.Concat(f1, f0, frameOn(t, w, vote(2))), []types.Round{2}, 2
		}},
		{"other_pair_key", func(t *testing.T, w *linkAuth, salt [saltLen]byte) ([]byte, []types.Round, uint64) {
			// Replica 2 holds a genuine key, but for the pair {1, 2}: it
			// cannot seal as replica 0.
			evil := writerEnd(t, crypto.NewMAC(crypto.PartyID(2), secret), crypto.PartyID(0), crypto.PartyID(1), salt)
			forged := frameOn(t, evil, vote(0))
			w.seq++
			return slices.Concat(forged, frameOn(t, w, vote(1))), []types.Round{1}, 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s1 := newSink()
			t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewMAC(crypto.PartyID(1), secret)}, s1)
			if err != nil {
				t.Fatal(err)
			}
			defer t1.Close()
			salt := newSalt()
			conn := dialAs0(t, t1, salt)
			w := writerEnd(t, crypto.NewMAC(crypto.PartyID(0), secret), crypto.PartyID(0), crypto.PartyID(1), salt)
			stream, rounds, refused := tc.lie(t, w, salt)
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			s1.wait(t, len(rounds))
			waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthRejects == refused })
			if st := t1.Stats(); st.DecodeErrs != 0 || st.AuthDemotions != 0 {
				t.Fatalf("stats %+v", st)
			}
			s1.mu.Lock()
			defer s1.mu.Unlock()
			var got []types.Round
			for _, m := range s1.msgs {
				got = append(got, m.(*types.Commit).Round)
			}
			if !slices.Equal(got, rounds) {
				t.Fatalf("delivered rounds %v, want %v", got, rounds)
			}
		})
	}

	// A salt changed in flight keys the reader to another stream: every
	// genuine frame is refused, and the link is demoted at AuthFailLimit.
	t.Run("salt_changed", func(t *testing.T) {
		s1 := newSink()
		t1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Auth: crypto.NewMAC(crypto.PartyID(1), secret)}, s1)
		if err != nil {
			t.Fatal(err)
		}
		defer t1.Close()
		salt := newSalt()
		w := writerEnd(t, crypto.NewMAC(crypto.PartyID(0), secret), crypto.PartyID(0), crypto.PartyID(1), salt)
		salt[0] ^= 0x01
		conn := dialAs0(t, t1, salt)
		for i := range AuthFailLimit {
			if _, err := conn.Write(frameOn(t, w, vote(types.Round(i)))); err != nil {
				t.Fatal(err)
			}
		}
		waitCond(t, 5*time.Second, func() bool { return t1.Stats().AuthDemotions == 1 })
		if st := t1.Stats(); st.AuthRejects != AuthFailLimit {
			t.Fatalf("stats %+v, want all %d frames refused", st, AuthFailLimit)
		}
		if n := s1.count(); n != 0 {
			t.Fatalf("delivered %d messages from a stream with a changed salt", n)
		}
	})
}

// TestFrameAuthAllocatesNothing: checking a frame costs no allocation on
// either scheme, and sealing one into a buffer with room costs none under
// MAC (an ED25519 signature is allocated by the standard library). The DS
// frame digest lives in the link's own scratch, not on the heap.
func TestFrameAuthAllocatesNothing(t *testing.T) {
	secret := []byte("alloc-secret")
	m := types.NewCommit(0, 0, 0, 1, types.ZeroDigest)
	for _, mk := range []func(party uint32) crypto.Authenticator{
		func(p uint32) crypto.Authenticator { return crypto.NewDSDev(p, secret) },
		func(p uint32) crypto.Authenticator { return crypto.NewMAC(p, secret) },
	} {
		salt := newSalt()
		w := writerEnd(t, mk(crypto.PartyID(0)), crypto.PartyID(0), crypto.PartyID(1), salt)
		r := readerEnd(t, mk(crypto.PartyID(1)), crypto.PartyID(1), crypto.PartyID(0), salt)
		frame := frameOn(t, w, m)
		records, tag, _ := openFrame(frame[4:])
		check := func() {
			r.seq = 0
			if !r.checkFrame(records, tag, true) {
				t.Fatal("genuine frame refused")
			}
		}
		if n := testing.AllocsPerRun(100, check); n != 0 {
			t.Errorf("%v: checking a frame made %v allocations, want 0", w.auth.Scheme(), n)
		}
		if w.auth.Scheme() != crypto.SchemeMAC {
			continue
		}
		buf := make([]byte, 0, 4096)
		seal := func() {
			b, err := appendRecord(append(buf[:0], 0, 0, 0, 0), m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.sealFrame(b); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, seal); n != 0 {
			t.Errorf("MAC: sealing a frame made %v allocations, want 0", n)
		}
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
// both must be refused, over MAC and DS. The captured streams are this
// build's wire version: the forged stream replays the genuine header, salt
// included, so on MAC its one frame sits at the genuine frame's position of
// the same stream and only the record bytes differ.
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
				if v := binary.BigEndian.Uint16(genuine[4:6]); v != WireVersion {
					t.Fatalf("captured a v%d stream, want v%d", v, WireVersion)
				}
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
// genuine frame in between restarts the count. Runs under both schemes; on
// a MAC link every frame is sealed for its own position, so only the key
// differs between a forged frame and a genuine one.
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
			salt := newSalt()
			forged := writerEnd(t, tc.auth(crypto.PartyID(0), []byte("bad")), crypto.PartyID(0), crypto.PartyID(1), salt)
			genuine := writerEnd(t, tc.auth(crypto.PartyID(0), []byte("good")), crypto.PartyID(0), crypto.PartyID(1), salt)
			conn := dialAs0(t, t1, salt)
			var pos uint64 // the stream position of the next frame
			write := func(w *linkAuth, times int) {
				t.Helper()
				for i := 0; i < times; i++ {
					w.seq = pos
					pos++
					if _, err := conn.Write(frameOn(t, w, m)); err != nil {
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

// TestTCPDigestCacheHitsOnRetransmit: under DS, the same client request
// sent twice (a retransmission, so a byte-identical frame) must verify once
// and hit the digest cache the second time — and still be delivered both
// times (the cache dedupes crypto work, not messages). A MAC link never
// consults the cache: its frames never repeat, since each is tagged under
// its own nonce.
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

			if tc.name == "mac" {
				if st := srv.Stats(); st.DigestHits != 0 || st.DigestMisses != 0 {
					t.Fatalf("a MAC link consulted the digest cache: %+v", st)
				}
			} else {
				if st := srv.Stats(); st.DigestMisses == 0 {
					t.Fatal("first delivery did not consult the digest cache")
				}
				waitCond(t, 5*time.Second, func() bool { return srv.Stats().DigestHits >= 1 })
			}
			if n := srvSink.count(); n != 2 {
				t.Fatalf("delivered %d messages, want 2", n)
			}
		})
	}
}
