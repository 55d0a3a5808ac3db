package types

// Registry-based binary codec for the shared message catalog.
//
// The transports originally gob-encoded every message, which costs a type
// registry lookup, reflection, and several allocations per message — all on
// whatever goroutine calls Send. This codec replaces that with an explicit
// MsgType tag followed by a hand-written, deterministic, big-endian body per
// type. Encoding appends into a caller-supplied buffer (so transports can
// reuse pooled buffers across messages) and decoding reads the tag and
// dispatches through a fixed registry — no reflection anywhere on the hot
// path.
//
// The encoding is self-contained per message: one tag byte, then the body.
// It deliberately reuses the deterministic Marshal forms that already exist
// for transactions and batches, so a batch's wire bytes are exactly the
// bytes its digest covers.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnknownMessage reports an unregistered or invalid message tag.
type ErrUnknownMessage struct{ Tag MsgType }

func (e ErrUnknownMessage) Error() string {
	return fmt.Sprintf("types: no codec for message tag %d", uint8(e.Tag))
}

// codecEntry is one registered message type.
type codecEntry struct {
	enc func(buf []byte, m Message) []byte
	dec func(r *Reader) Message
}

// msgCodecs is the registry, indexed by MsgType. The catalog is small and
// closed (values fit a byte), so a dense array beats a map on the hot path.
var msgCodecs [256]codecEntry

func registerCodec(t MsgType, enc func(buf []byte, m Message) []byte, dec func(r *Reader) Message) {
	if msgCodecs[t].enc != nil {
		panic(fmt.Sprintf("types: duplicate codec for %v", t))
	}
	msgCodecs[t] = codecEntry{enc: enc, dec: dec}
}

// AppendMessage appends the binary encoding of m (tag byte + body) to buf
// and returns the extended buffer.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	t := m.Type()
	c := &msgCodecs[t]
	if c.enc == nil {
		return buf, ErrUnknownMessage{Tag: t}
	}
	buf = append(buf, byte(t))
	return c.enc(buf, m), nil
}

// MarshalMessage encodes m into a fresh buffer.
func MarshalMessage(m Message) ([]byte, error) { return AppendMessage(nil, m) }

// DecodeMessage decodes exactly one message from b. Trailing bytes are an
// error: record boundaries belong to the framing layer above.
func DecodeMessage(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("types: empty message")
	}
	t := MsgType(b[0])
	c := &msgCodecs[t]
	if c.dec == nil {
		return nil, ErrUnknownMessage{Tag: t}
	}
	r := &Reader{b: b[1:]}
	m := c.dec(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("types: decode %v: %w", t, err)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

// Reader consumes big-endian primitives from a byte slice, latching the
// first error so decoders read straight through without per-field checks:
// once an error is latched every read returns a zero value. It is the one
// bounds-checked reader for bytes from peers: messages, and the sync-point
// and block encodings they carry.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// errTruncated is shared so refusing a hostile count allocates nothing.
var errTruncated = errors.New("truncated message")

// Fail latches err unless an error is latched already, and drops the
// unread bytes.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Finish returns the latched error, or an error if unread bytes remain.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// U8 reads one byte; U16, U32 and U64 read big-endian integers.
func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.Fail(errTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.Fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.Fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.Fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Bool reads one byte, true unless zero.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Digest reads a 32-byte digest.
func (r *Reader) Digest() Digest {
	var d Digest
	if len(r.b) < len(d) {
		r.Fail(errTruncated)
		return d
	}
	copy(d[:], r.b)
	r.b = r.b[len(d):]
	return d
}

// Count reads a u32 element count and refuses one the unread bytes cannot
// hold at minLen bytes per element, so a forged count never sizes an
// allocation. It returns 0 once an error is latched.
func (r *Reader) Count(minLen int) int {
	n := int(r.U32())
	if n > len(r.b)/minLen {
		r.Fail(errTruncated)
		return 0
	}
	return n
}

// Blob reads a u32-length-prefixed byte string (copied out of the frame
// buffer, which the transport recycles). A zero length decodes as nil so
// round-trips preserve nil-ness.
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// Batch reads one batch in Batch.Marshal's encoding.
func (r *Reader) Batch() *Batch {
	if r.err != nil {
		return nil
	}
	b, rest, err := UnmarshalBatch(r.b)
	if err != nil {
		r.Fail(err)
		return nil
	}
	r.b = rest
	return b
}

// MaybeBatch reads a presence byte and, when it is set, a batch: proposals
// retransmit digest-only.
func (r *Reader) MaybeBatch() *Batch {
	if !r.Bool() {
		return nil
	}
	return r.Batch()
}

// Replicas reads a u32-counted list of replica IDs.
func (r *Reader) Replicas() []ReplicaID {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	out := make([]ReplicaID, n)
	for i := range out {
		out[i] = ReplicaID(r.U16())
	}
	return out
}

// Seqs reads a client reply's u32-counted sequence numbers. The count
// arrives before authentication, so it must be at least 1 (a reply answers
// something) and at most what the remaining bytes can hold.
func (r *Reader) Seqs() []uint64 {
	n := r.Count(8)
	if n < 1 {
		r.Fail(errTruncated)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// Txns reads a client request's u32-counted transactions through the batch
// decoder (decodeTxns: every length checked before the one op allocation).
// The count arrives before authentication, so it must also be at least 1:
// Txns[0] is read unchecked downstream.
func (r *Reader) Txns() []Transaction {
	n := int(r.U32())
	if n < 1 {
		r.Fail(errTruncated)
		return nil
	}
	out, rest, err := decodeTxns(r.b, n)
	if err != nil {
		r.Fail(err)
		return nil
	}
	r.b = rest
	return out
}

// minProposalLen is the encoded floor of one AcceptedProposal (round +
// view + digest + prepared + batch-presence byte): decode-side allocation
// bounds divide by it so a forged count cannot amplify a small frame into
// a huge allocation (counts may arrive unauthenticated).
const minProposalLen = 8 + 8 + 32 + 1 + 1

// Proposals reads a u32-counted list of accepted proposals.
func (r *Reader) Proposals() []AcceptedProposal {
	n := r.Count(minProposalLen)
	if n == 0 {
		return nil
	}
	out := make([]AcceptedProposal, n)
	for i := range out {
		out[i] = r.Proposal()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Proposal reads one accepted proposal.
func (r *Reader) Proposal() AcceptedProposal {
	return AcceptedProposal{
		Round:    Round(r.U64()),
		View:     View(r.U64()),
		Digest:   r.Digest(),
		Prepared: r.Bool(),
		Batch:    r.MaybeBatch(),
	}
}

func appendU16(buf []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(buf, v) }
func appendU32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(buf, v) }

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBlob(buf, b []byte) []byte {
	buf = appendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendBatch(buf []byte, b *Batch) []byte {
	if b == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return b.Marshal(buf)
}

func appendReplicas(buf []byte, rs []ReplicaID) []byte {
	buf = appendU32(buf, uint32(len(rs)))
	for _, r := range rs {
		buf = appendU16(buf, uint16(r))
	}
	return buf
}

func appendSeqs(buf []byte, seqs []uint64) []byte {
	buf = appendU32(buf, uint32(len(seqs)))
	for _, s := range seqs {
		buf = appendU64(buf, s)
	}
	return buf
}

func appendTxns(buf []byte, txns []Transaction) []byte {
	buf = appendU32(buf, uint32(len(txns)))
	for i := range txns {
		buf = txns[i].Marshal(buf)
	}
	return buf
}

func appendProposal(buf []byte, p *AcceptedProposal) []byte {
	buf = appendU64(buf, uint64(p.Round))
	buf = appendU64(buf, uint64(p.View))
	buf = append(buf, p.Digest[:]...)
	buf = appendBool(buf, p.Prepared)
	return appendBatch(buf, p.Batch)
}

func appendProposals(buf []byte, ps []AcceptedProposal) []byte {
	buf = appendU32(buf, uint32(len(ps)))
	for i := range ps {
		buf = appendProposal(buf, &ps[i])
	}
	return buf
}

// ---------------------------------------------------------------------------
// Per-type codecs
// ---------------------------------------------------------------------------

func init() {
	registerCodec(MsgClientRequest,
		func(buf []byte, m Message) []byte {
			v := m.(*ClientRequest)
			buf = appendU16(buf, uint16(v.Inst))
			return appendTxns(buf, v.Txns)
		},
		func(r *Reader) Message {
			return NewClientRequest(InstanceID(r.U16()), r.Txns()...)
		})

	registerCodec(MsgClientReply,
		func(buf []byte, m Message) []byte {
			v := m.(*ClientReply)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU32(buf, uint32(v.Client))
			buf = appendU64(buf, uint64(v.Round))
			buf = append(buf, v.Result[:]...)
			return appendSeqs(buf, v.Seqs)
		},
		func(r *Reader) Message {
			// Arguments evaluate left to right, in wire order.
			return NewClientReply(InstanceID(r.U16()), ReplicaID(r.U16()), ClientID(r.U32()),
				Round(r.U64()), r.Digest(), r.Seqs())
		})

	registerCodec(MsgSwitchInstance,
		func(buf []byte, m Message) []byte {
			v := m.(*SwitchInstance)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU32(buf, uint32(v.Client))
			return appendU16(buf, uint16(v.To))
		},
		func(r *Reader) Message {
			return &SwitchInstance{
				Header: Header{Inst: InstanceID(r.U16())},
				Client: ClientID(r.U32()),
				To:     InstanceID(r.U16()),
			}
		})

	registerCodec(MsgPrePrepare,
		func(buf []byte, m Message) []byte {
			v := m.(*PrePrepare)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU64(buf, uint64(v.View))
			buf = appendU64(buf, uint64(v.Round))
			buf = append(buf, v.Digest[:]...)
			return appendBatch(buf, v.Batch)
		},
		func(r *Reader) Message {
			return &PrePrepare{
				Header: Header{Inst: InstanceID(r.U16())},
				View:   View(r.U64()),
				Round:  Round(r.U64()),
				Digest: r.Digest(),
				Batch:  r.MaybeBatch(),
			}
		})

	encVote := func(buf []byte, v *PhaseVote) []byte {
		buf = appendU16(buf, uint16(v.Inst))
		buf = appendU16(buf, uint16(v.Replica))
		buf = appendU64(buf, uint64(v.View))
		buf = appendU64(buf, uint64(v.Round))
		return append(buf, v.Digest[:]...)
	}
	decVote := func(r *Reader) PhaseVote {
		return PhaseVote{
			Header:  Header{Inst: InstanceID(r.U16())},
			Replica: ReplicaID(r.U16()),
			View:    View(r.U64()),
			Round:   Round(r.U64()),
			Digest:  r.Digest(),
		}
	}
	registerCodec(MsgPrepare,
		func(buf []byte, m Message) []byte { return encVote(buf, &m.(*Prepare).PhaseVote) },
		func(r *Reader) Message { return &Prepare{PhaseVote: decVote(r)} })
	registerCodec(MsgCommit,
		func(buf []byte, m Message) []byte { return encVote(buf, &m.(*Commit).PhaseVote) },
		func(r *Reader) Message { return &Commit{PhaseVote: decVote(r)} })

	registerCodec(MsgCheckpoint,
		func(buf []byte, m Message) []byte {
			v := m.(*Checkpoint)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, uint64(v.Round))
			buf = append(buf, v.State[:]...)
			return appendProposals(buf, v.Proposals)
		},
		func(r *Reader) Message {
			return &Checkpoint{
				Header:    Header{Inst: InstanceID(r.U16())},
				Replica:   ReplicaID(r.U16()),
				Round:     Round(r.U64()),
				State:     r.Digest(),
				Proposals: r.Proposals(),
			}
		})

	registerCodec(MsgViewChange,
		func(buf []byte, m Message) []byte {
			v := m.(*ViewChange)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, uint64(v.NewView))
			buf = appendU64(buf, uint64(v.StableCkp))
			return appendProposals(buf, v.Prepared)
		},
		func(r *Reader) Message {
			return &ViewChange{
				Header:    Header{Inst: InstanceID(r.U16())},
				Replica:   ReplicaID(r.U16()),
				NewView:   View(r.U64()),
				StableCkp: Round(r.U64()),
				Prepared:  r.Proposals(),
			}
		})

	registerCodec(MsgNewView,
		func(buf []byte, m Message) []byte {
			v := m.(*NewView)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, uint64(v.NewView))
			buf = appendReplicas(buf, v.ViewProofs)
			return appendProposals(buf, v.Reproposed)
		},
		func(r *Reader) Message {
			return &NewView{
				Header:     Header{Inst: InstanceID(r.U16())},
				Replica:    ReplicaID(r.U16()),
				NewView:    View(r.U64()),
				ViewProofs: r.Replicas(),
				Reproposed: r.Proposals(),
			}
		})

	registerCodec(MsgFailure,
		func(buf []byte, m Message) []byte { return appendFailure(buf, m.(*Failure)) },
		func(r *Reader) Message { return decodeFailure(r) })

	registerCodec(MsgStop,
		func(buf []byte, m Message) []byte {
			v := m.(*Stop)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Target))
			buf = appendU32(buf, uint32(len(v.Evidence)))
			for _, f := range v.Evidence {
				buf = appendFailure(buf, f)
			}
			return buf
		},
		func(r *Reader) Message {
			v := &Stop{
				Header: Header{Inst: InstanceID(r.U16())},
				Target: InstanceID(r.U16()),
			}
			// A Failure encodes to ≥17 bytes (inst+replica+round+light+
			// state count).
			n := r.Count(17)
			if n == 0 {
				return v
			}
			v.Evidence = make([]*Failure, n)
			for i := range v.Evidence {
				v.Evidence[i] = decodeFailure(r)
			}
			return v
		})
}

func appendFailure(buf []byte, v *Failure) []byte {
	buf = appendU16(buf, uint16(v.Inst))
	buf = appendU16(buf, uint16(v.Replica))
	buf = appendU64(buf, uint64(v.Round))
	buf = appendBool(buf, v.Light)
	return appendProposals(buf, v.State)
}

func decodeFailure(r *Reader) *Failure {
	return &Failure{
		Header:  Header{Inst: InstanceID(r.U16())},
		Replica: ReplicaID(r.U16()),
		Round:   Round(r.U64()),
		Light:   r.Bool(),
		State:   r.Proposals(),
	}
}
