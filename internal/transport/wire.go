package transport

// Wire format v13 (v13: STATE-OFFER carries the snapshot's boundary
// frontier after TxnCount instead of a threshold attestation after the live
// frontier, and CHECKPOINT-ATTEST left the catalog; v12: the stream header
// carries a 16-byte salt, and a MAC
// link's frame tag is an AES-256-GCM record MAC under a per-stream key with
// the frame's index as its nonce, instead of an HMAC over the frame digest;
// v11: a frame's tag covers the domain-separated digest
// SHA-256(frameDomain ‖ records) instead of the record bytes themselves;
// v10: the coordinator ops a coordinator PRE-PREPARE carries, stop and
// switch, are types.Stop and types.SwitchInstance encodings; v9: the message
// types renumbered after EPOCH-CHANGE and NEW-EPOCH left the catalog, so the
// state-sync types moved down two type bytes; v8: ResultHash redefined — one
// SHA-256 over each result's u32 length and bytes, so CLIENT-REPLY digests
// differ from v7's while every encoding stays the same; v7 and v6 renumbered
// the message types after six and seven were removed from the catalog; v5
// moved the authenticator tag from each record to the frame; v4 changed the
// CLIENT-REQUEST body to a transaction list, v3 the CLIENT-REPLY body to a
// seq list; older peers are refused at the handshake).
//
// Each direction of a TCP connection is an independent byte stream:
//
//	stream  = header frame*
//	header  = magic("RCCB") version(u16) kind(u8) sender(u32) salt(16)
//	frame   = frameLen(u32) record* tag tagLen(u8) // frameLen = bytes after it
//	record  = recLen(u32) msg                      // recLen = len(msg)
//	msg     = MsgType(u8) body                     // types.AppendMessage encoding
//
// All integers are big-endian. The header names the SENDER once per
// connection (kind 0 = replica, 1 = client; sender carries the replica ID in
// the low 16 bits or the full client ID), so records carry no per-message
// envelope, and carries a salt the writer draws from crypto/rand for this
// stream alone. One authenticator tag per frame covers the exact bytes of
// all its records (every recLen and msg, in order):
//
//   - MAC links are authenticated streams. Both ends derive the stream key
//     K = Tag(peer, streamDomain ‖ from ‖ to ‖ salt), an HMAC under the
//     symmetric pair key, so the receiver's own authenticator computes the
//     writer's K. The tag of the stream's i-th frame (i from 0) is
//     AES-256-GCM under K with an empty plaintext, the records as additional
//     data and nonce i: the per-record nonce of TLS 1.3 (RFC 8446 §5.3). The
//     reader opens the i-th frame under nonce i whether or not it verifies,
//     so a corrupted frame costs only itself, while a frame replayed,
//     reordered, or spliced in from another stream of the same pair is
//     refused. The reader contributes nothing to K, so a whole earlier
//     stream replayed from its header on is accepted again, as any
//     replayed frame was before v12; the protocols' own dedup absorbs it.
//   - DS links sign d = SHA-256(frameDomain ‖ records) with ED25519. The
//     domain prefix keeps frame tags apart from anything else the same keys
//     sign. A DS tag does not bind its stream: it proves the sender, not the
//     position.
//   - Unauthenticated transports send an empty tag.
//
// A reader splits the tag off the end of the frame and checks it before it
// decodes anything, so the only parser hostile bytes reach is openFrame's
// tag split — the message decoder sees authenticated bytes only, and no
// decoded field can sit outside the tag. A reader that sees a bad magic or a
// different version refuses the connection before any frame is interpreted:
// mixed-version deployments fail loudly at connect time (compare
// store.ErrDataDirMismatch for disk state) instead of corrupting each
// other's streams.
//
// Frames exist for write-side batching: a writer goroutine coalesces every
// message queued at that moment into one frame, computes one tag over it and
// hands the kernel a single buffer, so the per-syscall and per-tag costs
// amortize across the burst. Record and frame lengths let the reader slice
// messages back out without peeking into codec internals, and cap memory per
// frame (maxFrameBytes). Under DS a broadcast often puts the same bytes in
// every peer's frame; the writers share one signature for them (tagMemo).

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/types"
)

// WireVersion is the framing version this build speaks. Connections
// announcing any other version are refused at the handshake. types.MsgType
// values are positional, so a change to the catalog bumps it too, and so
// does a change to what replicas must agree on in replies (ResultHash).
const WireVersion = 13

var wireMagic = [4]byte{'R', 'C', 'C', 'B'}

// ErrWireVersion reports a peer speaking a different framing version (or not
// speaking this protocol at all).
var ErrWireVersion = errors.New("transport: wire version mismatch")

const (
	kindReplica = 0
	kindClient  = 1
	// wirePrefixLen is the header up to the salt, which is all a v11
	// header holds: the reader checks magic and version before it waits
	// for a salt an old peer never sends.
	wirePrefixLen = 4 + 2 + 1 + 4
	saltLen       = 16
	wireHeaderLen = wirePrefixLen + saltLen
	maxTagLen     = 255
)

// wireHeader is the decoded per-connection stream header.
type wireHeader struct {
	version  uint16
	isClient bool
	replica  types.ReplicaID
	client   types.ClientID
	salt     [saltLen]byte
}

// party returns the crypto party ID the header's sender authenticates as.
func (h *wireHeader) party() uint32 {
	if h.isClient {
		return crypto.ClientPartyID(h.client)
	}
	return crypto.PartyID(h.replica)
}

// appendHeader encodes the local node's stream header.
func appendHeader(buf []byte, isClient bool, r types.ReplicaID, c types.ClientID, salt [saltLen]byte) []byte {
	buf = append(buf, wireMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, WireVersion)
	if isClient {
		buf = append(buf, kindClient)
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
	} else {
		buf = append(buf, kindReplica)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r))
	}
	return append(buf, salt[:]...)
}

// readHeader consumes and validates a stream header.
func readHeader(r io.Reader) (wireHeader, error) {
	var b [wirePrefixLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return wireHeader{}, fmt.Errorf("transport: reading stream header: %w", err)
	}
	if [4]byte(b[:4]) != wireMagic {
		return wireHeader{}, fmt.Errorf("%w: bad magic %q", ErrWireVersion, b[:4])
	}
	h := wireHeader{version: binary.BigEndian.Uint16(b[4:6])}
	if h.version != WireVersion {
		return h, fmt.Errorf("%w: peer speaks v%d, this build speaks v%d",
			ErrWireVersion, h.version, WireVersion)
	}
	id := binary.BigEndian.Uint32(b[7:11])
	switch b[6] {
	case kindReplica:
		h.replica = types.ReplicaID(id)
	case kindClient:
		h.isClient = true
		h.client = types.ClientID(id)
	default:
		return h, fmt.Errorf("%w: unknown sender kind %d", ErrWireVersion, b[6])
	}
	if _, err := io.ReadFull(r, h.salt[:]); err != nil {
		return h, fmt.Errorf("transport: reading stream salt: %w", err)
	}
	return h, nil
}

// appendRecord encodes one message as a record into buf.
func appendRecord(buf []byte, m types.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // recLen, patched below
	out, err := types.AppendMessage(buf, m)
	if err != nil {
		return buf[:start], err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// ---------------------------------------------------------------------------
// Frame authentication
// ---------------------------------------------------------------------------

// streamDomain prefixes what a MAC link's stream key is derived from, so the
// key never equals a pair-key HMAC over anything else.
var streamDomain = []byte("rcc/transport/stream\x00")

// linkAuth authenticates the frames of one direction of one connection. The
// writer or reader goroutine that owns the direction owns it too, so none of
// it is shared (a DS writer's memo excepted). A nil *linkAuth is an
// unauthenticated link: its frames carry an empty tag.
type linkAuth struct {
	auth  crypto.Authenticator
	party uint32 // the party at the other end of the link

	// MAC links: AES-256-GCM under the stream key, and the index of the
	// stream's next frame, which is that frame's nonce.
	gcm   cipher.AEAD
	seq   uint64
	nonce [12]byte

	// DS links: the digest of the frame being signed or verified, kept here
	// so handing it to the Authenticator costs no allocation.
	d     [sha256.Size]byte
	memo  *tagMemo           // peer-link writers: signatures shared between them
	cache *digestcache.Cache // client-link readers: verified frames
}

// newSalt draws a fresh stream salt.
func newSalt() (salt [saltLen]byte) {
	rand.Read(salt[:]) // never fails: crypto/rand crashes the program instead
	return salt
}

// newLinkAuth returns the frame authentication of the stream between party
// self and party peer whose header carried salt: the stream self writes, or
// with inbound the one self reads. It returns nil when auth authenticates
// nothing. The error reports a MAC authenticator whose tag is no AES key.
func newLinkAuth(auth crypto.Authenticator, self, peer uint32, inbound bool, salt [saltLen]byte) (*linkAuth, error) {
	if auth == nil || auth.Scheme() == crypto.SchemeNone {
		return nil, nil
	}
	la := &linkAuth{auth: auth, party: peer}
	if auth.Scheme() != crypto.SchemeMAC {
		return la, nil
	}
	from, to := self, peer
	if inbound {
		from, to = peer, self
	}
	in := make([]byte, 0, len(streamDomain)+8+saltLen)
	in = append(in, streamDomain...)
	in = binary.BigEndian.AppendUint32(in, from)
	in = binary.BigEndian.AppendUint32(in, to)
	in = append(in, salt[:]...)
	block, err := aes.NewCipher(auth.Tag(peer, in))
	if err == nil {
		la.gcm, err = cipher.NewGCM(block)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: stream key: %w", err)
	}
	return la, nil
}

// nextNonce returns the nonce of the stream's next frame and counts that
// frame.
func (la *linkAuth) nextNonce() []byte {
	binary.BigEndian.PutUint64(la.nonce[4:], la.seq)
	la.seq++
	return la.nonce[:]
}

// sealFrame appends the tag over frame's records (everything after the
// frameLen slot) and the tag length, then patches frameLen. The writer seals
// a frame once it holds the connection the frame goes out on, since a MAC
// tag belongs to one position of one stream; the cost never lands on the
// caller of Send.
func (la *linkAuth) sealFrame(frame []byte) ([]byte, error) {
	end := len(frame)
	switch {
	case la == nil:
	case la.gcm != nil:
		frame = la.gcm.Seal(frame, la.nextNonce(), nil, frame[4:end])
	default:
		frameDigest(&la.d, frame[4:end])
		if la.memo != nil {
			frame = append(frame, la.memo.tag(la.auth, la.party, &la.d)...)
		} else {
			frame = append(frame, la.auth.Tag(la.party, la.d[:])...)
		}
	}
	tagLen := len(frame) - end
	if tagLen > maxTagLen {
		return frame[:end], fmt.Errorf("transport: authenticator tag %d bytes exceeds %d", tagLen, maxTagLen)
	}
	frame = append(frame, byte(tagLen))
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

// checkFrame reports whether tag authenticates records, the halves of one
// frame openFrame split (split is openFrame's verdict). A MAC link's frame
// uses up its nonce even when it cannot be split or does not verify, so the
// reader stays in step with the writer past a corrupted frame.
func (la *linkAuth) checkFrame(records, tag []byte, split bool) bool {
	if la.gcm == nil {
		return split && la.verifyFrame(records, tag)
	}
	nonce := la.nextNonce()
	if !split || len(tag) != la.gcm.Overhead() {
		return false
	}
	_, err := la.gcm.Open(nil, nonce, tag, records)
	return err == nil
}

// frameDomain prefixes every DS frame digest, so a frame signature never
// doubles as a signature over any other object signed with the same keys.
var frameDomain = []byte("rcc/transport/frame\x00")

// hasherPool recycles SHA-256 states, so a frame digest costs no
// allocation.
var hasherPool = sync.Pool{New: func() any { return sha256.New() }}

// frameDigest sets *d = SHA-256(frameDomain ‖ records), the value a DS
// frame's tag covers.
func frameDigest(d *[sha256.Size]byte, records []byte) {
	h := hasherPool.Get().(hash.Hash)
	h.Reset()
	h.Write(frameDomain)
	h.Write(records)
	h.Sum(d[:0])
	hasherPool.Put(h)
}

// tagMemo lets the peer-link writers of one DS node share frame signatures.
// An ED25519 signature is deterministic and a DS tag does not name its
// receiver (crypto.Scheme), so a writer whose frame digest equals one that
// another writer just sealed appends that tag instead of signing again: the
// bytes are exactly what signing would produce, and every receiver still
// verifies them. An entry is published before it is signed, so a writer
// that arrives while the first still signs waits for that signature rather
// than computing the same one. The ring holds one slot per peer writer.
type tagMemo struct {
	mu   sync.Mutex
	ring []*memoTag
	next int
}

type memoTag struct {
	d    [sha256.Size]byte
	tag  []byte
	done chan struct{} // closed once tag is set
}

// newTagMemo returns the memo the writers of a node keyed with auth share,
// or nil when their tags cannot be shared: MAC tags are keyed per stream.
func newTagMemo(auth crypto.Authenticator) *tagMemo {
	if auth == nil || auth.Scheme() != crypto.SchemeDS {
		return nil
	}
	return &tagMemo{}
}

// addWriter gives one more peer writer its slot.
func (m *tagMemo) addWriter() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ring = append(m.ring, nil)
	m.mu.Unlock()
}

// tag returns auth's tag over frame digest *d, signing only if no writer
// has signed *d since the ring last turned over. It signs the entry's own
// copy of the digest, which lives as long as the entry anyway.
func (m *tagMemo) tag(auth crypto.Authenticator, party uint32, d *[sha256.Size]byte) []byte {
	m.mu.Lock()
	for _, e := range m.ring {
		if e != nil && e.d == *d {
			m.mu.Unlock()
			<-e.done
			return e.tag
		}
	}
	e := &memoTag{d: *d, done: make(chan struct{})}
	m.ring[m.next] = e
	m.next = (m.next + 1) % len(m.ring)
	m.mu.Unlock()
	e.tag = auth.Tag(party, e.d[:])
	close(e.done)
	return e.tag
}

// openFrame splits a frame (the bytes after frameLen) into its record bytes
// and its tag. It runs before authentication, so it only slices, and both
// results alias frame. ok is false when the frame cannot even hold the tag
// its last byte announces.
func openFrame(frame []byte) (records, tag []byte, ok bool) {
	if len(frame) == 0 {
		return nil, nil, false
	}
	end := len(frame) - 1
	tagLen := int(frame[end])
	if tagLen > end {
		return nil, nil, false
	}
	return frame[:end-tagLen], frame[end-tagLen : end], true
}

// forEachRecord walks a frame's records, yielding msg slices that alias
// records: the callback must not retain them. An error means a record's
// length runs past the frame; records before it were yielded.
func forEachRecord(records []byte, fn func(msg []byte)) error {
	for len(records) > 0 {
		if len(records) < 4 {
			return fmt.Errorf("transport: truncated record header")
		}
		n := int(binary.BigEndian.Uint32(records))
		records = records[4:]
		if n < 1 || n > len(records) {
			return fmt.Errorf("transport: record length %d exceeds frame", n)
		}
		fn(records[:n])
		records = records[n:]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pooled buffers
// ---------------------------------------------------------------------------

// bufPool recycles frame encode/decode buffers across messages and
// connections, keeping the steady-state messaging path allocation-light.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	// Don't let one huge frame pin a huge buffer forever.
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
