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
	dec func(r *wireReader) Message
}

// msgCodecs is the registry, indexed by MsgType. The catalog is small and
// closed (values fit a byte), so a dense array beats a map on the hot path.
var msgCodecs [256]codecEntry

func registerCodec(t MsgType, enc func(buf []byte, m Message) []byte, dec func(r *wireReader) Message) {
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
	r := &wireReader{b: b[1:]}
	m := c.dec(r)
	if r.err != nil {
		return nil, fmt.Errorf("types: decode %v: %w", t, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("types: decode %v: %d trailing bytes", t, len(r.b))
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

// wireReader consumes big-endian primitives from a byte slice, latching the
// first error so decoders read straight through without per-field checks.
type wireReader struct {
	b   []byte
	err error
}

// errTruncated is shared so refusing a hostile count allocates nothing.
var errTruncated = errors.New("truncated message")

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.b = nil
}

func (r *wireReader) u8() uint8 {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *wireReader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) bool() bool { return r.u8() != 0 }

func (r *wireReader) digest() Digest {
	var d Digest
	if len(r.b) < len(d) {
		r.fail()
		return d
	}
	copy(d[:], r.b)
	r.b = r.b[len(d):]
	return d
}

// blob reads a u32-length-prefixed byte string (copied out of the frame
// buffer, which the transport recycles). A zero length decodes as nil so
// round-trips preserve nil-ness.
func (r *wireReader) blob() []byte {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if len(r.b) < n {
		r.fail()
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

func (r *wireReader) batch() *Batch {
	if !r.bool() { // presence byte: proposals retransmit digest-only
		return nil
	}
	if r.err != nil {
		return nil
	}
	b, rest, err := UnmarshalBatch(r.b)
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		r.b = nil
		return nil
	}
	r.b = rest
	return b
}

func (r *wireReader) replicas() []ReplicaID {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if len(r.b) < 2*n {
		r.fail()
		return nil
	}
	out := make([]ReplicaID, n)
	for i := range out {
		out[i] = ReplicaID(r.u16())
	}
	return out
}

// seqs reads a client reply's u32-counted sequence numbers. The count
// arrives before authentication, so it must be at least 1 (a reply answers
// something) and at most what the remaining bytes can hold.
func (r *wireReader) seqs() []uint64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 1 || n > len(r.b)/8 {
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

// txns reads a client request's u32-counted transactions through the batch
// decoder (decodeTxns: every length checked before the one op allocation).
// The count arrives before authentication, so it must also be at least 1:
// Txns[0] is read unchecked downstream.
func (r *wireReader) txns() []Transaction {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 1 {
		r.fail()
		return nil
	}
	out, rest, err := decodeTxns(r.b, n)
	if err != nil {
		r.err, r.b = err, nil
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

func (r *wireReader) proposals() []AcceptedProposal {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if n > len(r.b)/minProposalLen {
		r.fail()
		return nil
	}
	out := make([]AcceptedProposal, n)
	for i := range out {
		out[i] = r.proposal()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *wireReader) proposal() AcceptedProposal {
	return AcceptedProposal{
		Round:    Round(r.u64()),
		View:     View(r.u64()),
		Digest:   r.digest(),
		Prepared: r.bool(),
		Batch:    r.batch(),
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
		func(r *wireReader) Message {
			return NewClientRequest(InstanceID(r.u16()), r.txns()...)
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
		func(r *wireReader) Message {
			// Arguments evaluate left to right, in wire order.
			return NewClientReply(InstanceID(r.u16()), ReplicaID(r.u16()), ClientID(r.u32()),
				Round(r.u64()), r.digest(), r.seqs())
		})

	registerCodec(MsgSwitchInstance,
		func(buf []byte, m Message) []byte {
			v := m.(*SwitchInstance)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU32(buf, uint32(v.Client))
			return appendU16(buf, uint16(v.To))
		},
		func(r *wireReader) Message {
			return &SwitchInstance{
				Header: Header{Inst: InstanceID(r.u16())},
				Client: ClientID(r.u32()),
				To:     InstanceID(r.u16()),
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
		func(r *wireReader) Message {
			return &PrePrepare{
				Header: Header{Inst: InstanceID(r.u16())},
				View:   View(r.u64()),
				Round:  Round(r.u64()),
				Digest: r.digest(),
				Batch:  r.batch(),
			}
		})

	encVote := func(buf []byte, v *PhaseVote) []byte {
		buf = appendU16(buf, uint16(v.Inst))
		buf = appendU16(buf, uint16(v.Replica))
		buf = appendU64(buf, uint64(v.View))
		buf = appendU64(buf, uint64(v.Round))
		return append(buf, v.Digest[:]...)
	}
	decVote := func(r *wireReader) PhaseVote {
		return PhaseVote{
			Header:  Header{Inst: InstanceID(r.u16())},
			Replica: ReplicaID(r.u16()),
			View:    View(r.u64()),
			Round:   Round(r.u64()),
			Digest:  r.digest(),
		}
	}
	registerCodec(MsgPrepare,
		func(buf []byte, m Message) []byte { return encVote(buf, &m.(*Prepare).PhaseVote) },
		func(r *wireReader) Message { return &Prepare{PhaseVote: decVote(r)} })
	registerCodec(MsgCommit,
		func(buf []byte, m Message) []byte { return encVote(buf, &m.(*Commit).PhaseVote) },
		func(r *wireReader) Message { return &Commit{PhaseVote: decVote(r)} })

	registerCodec(MsgCheckpoint,
		func(buf []byte, m Message) []byte {
			v := m.(*Checkpoint)
			buf = appendU16(buf, uint16(v.Inst))
			buf = appendU16(buf, uint16(v.Replica))
			buf = appendU64(buf, uint64(v.Round))
			buf = append(buf, v.State[:]...)
			return appendProposals(buf, v.Proposals)
		},
		func(r *wireReader) Message {
			return &Checkpoint{
				Header:    Header{Inst: InstanceID(r.u16())},
				Replica:   ReplicaID(r.u16()),
				Round:     Round(r.u64()),
				State:     r.digest(),
				Proposals: r.proposals(),
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
		func(r *wireReader) Message {
			return &ViewChange{
				Header:    Header{Inst: InstanceID(r.u16())},
				Replica:   ReplicaID(r.u16()),
				NewView:   View(r.u64()),
				StableCkp: Round(r.u64()),
				Prepared:  r.proposals(),
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
		func(r *wireReader) Message {
			return &NewView{
				Header:     Header{Inst: InstanceID(r.u16())},
				Replica:    ReplicaID(r.u16()),
				NewView:    View(r.u64()),
				ViewProofs: r.replicas(),
				Reproposed: r.proposals(),
			}
		})

	registerCodec(MsgFailure,
		func(buf []byte, m Message) []byte { return appendFailure(buf, m.(*Failure)) },
		func(r *wireReader) Message { return decodeFailure(r) })

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
		func(r *wireReader) Message {
			v := &Stop{
				Header: Header{Inst: InstanceID(r.u16())},
				Target: InstanceID(r.u16()),
			}
			n := int(r.u32())
			if r.err != nil || n == 0 {
				return v
			}
			// A Failure encodes to ≥17 bytes (inst+replica+round+light+
			// state count): bound the count like proposals() does.
			if n > len(r.b)/17 {
				r.fail()
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

func decodeFailure(r *wireReader) *Failure {
	return &Failure{
		Header:  Header{Inst: InstanceID(r.u16())},
		Replica: ReplicaID(r.u16()),
		Round:   Round(r.u64()),
		Light:   r.bool(),
		State:   r.proposals(),
	}
}
