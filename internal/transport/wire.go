package transport

// Wire format v11 (v11: a frame's tag covers the domain-separated digest
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
//	header  = magic("RCCB") version(u16) kind(u8) sender(u32)
//	frame   = frameLen(u32) record* tag tagLen(u8) // frameLen = bytes after it
//	record  = recLen(u32) msg                      // recLen = len(msg)
//	msg     = MsgType(u8) body                     // types.AppendMessage encoding
//
// All integers are big-endian. The header names the SENDER once per
// connection (kind 0 = replica, 1 = client; sender carries the replica ID in
// the low 16 bits or the full client ID), so records carry no per-message
// envelope. One authenticator tag per frame covers the frame digest
// d = SHA-256(frameDomain ‖ records), where records are the exact bytes of
// all its records (every recLen and msg, in order): an HMAC under the pair
// key, or an ED25519 signature, over d. The domain prefix keeps frame tags
// apart from anything else the same keys sign. Unauthenticated transports
// send an empty tag. A reader splits the tag off the end of the frame,
// hashes the records once and verifies the tag against d before it decodes
// anything, so the only parser hostile bytes reach is openFrame's tag split —
// the message decoder sees authenticated bytes only, and no decoded field
// can sit outside the tag. A reader that sees a bad magic or a different
// version refuses the connection before any frame is interpreted:
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
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"repro/internal/crypto"
	"repro/internal/types"
)

// WireVersion is the framing version this build speaks. Connections
// announcing any other version are refused at the handshake. types.MsgType
// values are positional, so a change to the catalog bumps it too, and so
// does a change to what replicas must agree on in replies (ResultHash).
const WireVersion = 11

var wireMagic = [4]byte{'R', 'C', 'C', 'B'}

// ErrWireVersion reports a peer speaking a different framing version (or not
// speaking this protocol at all).
var ErrWireVersion = errors.New("transport: wire version mismatch")

const (
	kindReplica   = 0
	kindClient    = 1
	wireHeaderLen = 4 + 2 + 1 + 4
	maxTagLen     = 255
)

// wireHeader is the decoded per-connection stream header.
type wireHeader struct {
	version  uint16
	isClient bool
	replica  types.ReplicaID
	client   types.ClientID
}

// party returns the crypto party ID the header's sender authenticates as.
func (h *wireHeader) party() uint32 {
	if h.isClient {
		return crypto.ClientPartyID(h.client)
	}
	return crypto.PartyID(h.replica)
}

// appendHeader encodes the local node's stream header.
func appendHeader(buf []byte, isClient bool, r types.ReplicaID, c types.ClientID) []byte {
	buf = append(buf, wireMagic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, WireVersion)
	if isClient {
		buf = append(buf, kindClient)
		return binary.BigEndian.AppendUint32(buf, uint32(c))
	}
	buf = append(buf, kindReplica)
	return binary.BigEndian.AppendUint32(buf, uint32(r))
}

// readHeader consumes and validates a stream header.
func readHeader(r io.Reader) (wireHeader, error) {
	var b [wireHeaderLen]byte
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

// frameDomain prefixes every frame digest, so a frame tag never doubles as
// a tag over any other object signed or MACed with the same keys.
var frameDomain = []byte("rcc/transport/frame\x00")

// frameHasher is a pooled SHA-256 state with room for its sum, so a frame
// digest costs no allocation.
type frameHasher struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

var hasherPool = sync.Pool{New: func() any { return &frameHasher{h: sha256.New()} }}

// frameDigest returns d = SHA-256(frameDomain ‖ records), the value a
// frame's tag covers.
func frameDigest(records []byte) [sha256.Size]byte {
	fh := hasherPool.Get().(*frameHasher)
	fh.h.Reset()
	fh.h.Write(frameDomain)
	fh.h.Write(records)
	d := [sha256.Size]byte(fh.h.Sum(fh.sum[:0]))
	hasherPool.Put(fh)
	return d
}

// sealFrame appends the tag over the digest of frame's records (everything
// after the frameLen slot) and the tag length, then patches frameLen. The
// tag is computed here, on the writer goroutine, so the MAC or signature
// cost never lands on the caller of Send. memo, when set, shares DS tags
// between the node's writers.
func sealFrame(frame []byte, auth crypto.Authenticator, party uint32, memo *tagMemo) ([]byte, error) {
	end := len(frame)
	if auth != nil && auth.Scheme() != crypto.SchemeNone {
		d := frameDigest(frame[4:end])
		if memo != nil {
			frame = append(frame, memo.tag(auth, party, d)...)
		} else if ta, ok := auth.(crypto.TagAppender); ok {
			frame = ta.AppendTag(party, d[:], frame)
		} else {
			frame = append(frame, auth.Tag(party, d[:])...)
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
// or nil when their tags cannot be shared: MAC tags are keyed per receiver.
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

// tag returns auth's tag over frame digest d, signing only if no writer
// has signed d since the ring last turned over.
func (m *tagMemo) tag(auth crypto.Authenticator, party uint32, d [sha256.Size]byte) []byte {
	m.mu.Lock()
	for _, e := range m.ring {
		if e != nil && e.d == d {
			m.mu.Unlock()
			<-e.done
			return e.tag
		}
	}
	e := &memoTag{d: d, done: make(chan struct{})}
	m.ring[m.next] = e
	m.next = (m.next + 1) % len(m.ring)
	m.mu.Unlock()
	e.tag = auth.Tag(party, d[:])
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
