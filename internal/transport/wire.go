package transport

// Wire format v4 (v4 changed the CLIENT-REQUEST body to a transaction list,
// v3 the CLIENT-REPLY body to a seq list; older peers are refused at the
// handshake).
//
// Each direction of a TCP connection is an independent byte stream:
//
//	stream  = header frame*
//	header  = magic("RCCB") version(u16) kind(u8) sender(u32)
//	frame   = frameLen(u32) record*            // frameLen = total record bytes
//	record  = recLen(u32) tagLen(u8) tag msg   // recLen = 1 + tagLen + len(msg)
//	msg     = MsgType(u8) body                 // types.AppendMessage encoding
//
// All integers are big-endian. The header names the SENDER once per
// connection (kind 0 = replica, 1 = client; sender carries the replica ID in
// the low 16 bits or the full client ID), so records carry no per-message
// envelope — only the authenticator tag over the message's AuthPayload.
// A reader that sees a bad magic or a different version refuses the
// connection before any frame is interpreted: mixed-version deployments
// fail loudly at connect time (compare store.ErrDataDirMismatch for disk
// state) instead of corrupting each other's streams.
//
// Frames exist for write-side batching: a writer goroutine coalesces every
// message queued at that moment into one frame and hands the kernel a single
// buffer, so the per-syscall cost amortizes across the burst. Record and
// frame lengths let the reader slice messages back out without peeking into
// codec internals, and cap memory per frame (maxFrameBytes).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/crypto"
	"repro/internal/types"
)

// WireVersion is the framing version this build speaks. Connections
// announcing any other version are refused at the handshake.
const WireVersion = 4

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

// appendRecord encodes one message (tag + codec bytes) as a record into buf.
// The authenticator tag is computed here — on the writer goroutine — so the
// MAC cost never lands on the caller of Send. scratch is reused across calls
// for the AuthPayload bytes.
func appendRecord(buf []byte, auth crypto.Authenticator, party uint32, m types.Message, scratch *[]byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // recLen, patched below
	var tag []byte
	if auth != nil && auth.Scheme() != crypto.SchemeNone {
		*scratch = m.AuthPayload((*scratch)[:0])
		if ta, ok := auth.(crypto.TagAppender); ok {
			// Tag lands in scratch right after the payload: no per-record
			// allocation once the scratch buffer is warm. AppendTag only
			// reads payload and appends to dst, so aliasing one buffer is
			// safe even if the append reallocates.
			plen := len(*scratch)
			*scratch = ta.AppendTag(party, (*scratch)[:plen], *scratch)
			tag = (*scratch)[plen:]
		} else {
			tag = auth.Tag(party, *scratch)
		}
	}
	if len(tag) > maxTagLen {
		return buf[:start], fmt.Errorf("transport: authenticator tag %d bytes exceeds %d", len(tag), maxTagLen)
	}
	buf = append(buf, byte(len(tag)))
	buf = append(buf, tag...)
	out, err := types.AppendMessage(buf, m)
	if err != nil {
		return buf[:start], err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// forEachRecord walks the records of one frame, yielding (tag, msg) slices
// that alias the frame buffer — the callback must not retain them.
func forEachRecord(frame []byte, fn func(tag, msg []byte)) error {
	for len(frame) > 0 {
		if len(frame) < 4 {
			return fmt.Errorf("transport: truncated record header")
		}
		n := int(binary.BigEndian.Uint32(frame))
		frame = frame[4:]
		if n < 1 || n > len(frame) {
			return fmt.Errorf("transport: record length %d exceeds frame", n)
		}
		rec := frame[:n]
		frame = frame[n:]
		tagLen := int(rec[0])
		if 1+tagLen > len(rec) {
			return fmt.Errorf("transport: tag length %d exceeds record", tagLen)
		}
		fn(rec[1:1+tagLen], rec[1+tagLen:])
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
