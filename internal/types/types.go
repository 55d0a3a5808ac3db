// Package types defines the identifiers, transactions, batches, and the
// shared message catalog used by every consensus protocol in this
// repository.
//
// All encodings are deterministic: two replicas marshalling the same value
// produce identical bytes, which is required both for digests (proposals
// are identified by their digest) and for authenticators (MACs and
// signatures are computed over the marshalled form).
//
// Wire sizes follow the constants reported in the RCC paper (§V-B): a
// 100-transaction proposal is 5400 B (54 B per transaction), a client reply
// for 100 transactions is 1748 B, and all other consensus messages are
// 250 B. WireSize is what the simulators charge against link bandwidth; the
// actual marshalled form may be smaller.
//
// The package also provides the registry-based binary codec the transports
// put on the wire (codec.go): AppendMessage/MarshalMessage emit an explicit
// MsgType tag followed by a hand-written big-endian body, DecodeMessage
// dispatches on the tag — no reflection, append-into-caller-buffer so
// encode buffers pool, and an exhaustive round-trip test pins every type in
// the catalog (BenchmarkCodec measures the gap vs the gob encoding this
// replaced).
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// ReplicaID identifies a replica. Replicas are numbered 0..n-1.
type ReplicaID uint16

// NoReplica is a sentinel for "no replica" (e.g. broadcast destinations).
const NoReplica = ReplicaID(0xffff)

// InstanceID identifies a consensus instance. Under RCC, instance i of the
// Byzantine commit algorithm is coordinated by primary P_i = replica i.
// Coordinating (recovery) consensus instances use a disjoint ID range; see
// CoordInstance.
type InstanceID uint16

// CoordOffset separates BCA instance IDs from the per-instance coordinating
// consensus protocol P used during recovery (paper §III-C).
const CoordOffset InstanceID = 1 << 12

// CoordInstance returns the instance ID of the coordinating consensus
// protocol responsible for recovering BCA instance i.
func CoordInstance(i InstanceID) InstanceID { return i + CoordOffset }

// IsCoord reports whether id names a coordinating consensus instance.
func IsCoord(id InstanceID) bool { return id >= CoordOffset }

// BCAOf returns the BCA instance a coordinating instance recovers.
func BCAOf(id InstanceID) InstanceID { return id - CoordOffset }

// ClientID identifies a client.
type ClientID uint32

// View numbers the views of a primary-backup protocol.
type View uint64

// Round numbers consensus rounds (sequence numbers) within an instance.
type Round uint64

// StateKey identifies one unit of application state. Only
// ycsb.Store.Keys returns it, for the benchmark module's traced app; the
// bank hashes account names onto it with KeyString to pick a lock shard.
type StateKey uint64

// KeyString maps a string identifier onto a StateKey with FNV-1a
// (deterministic across replicas, allocation-free).
func KeyString(s string) StateKey {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return StateKey(h)
}

// Digest is a SHA-256 digest used to identify proposals and states.
type Digest [32]byte

// ZeroDigest is the all-zero digest.
var ZeroDigest Digest

func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// Uint64 folds the digest into a uint64, used to seed the deterministic
// execution-order permutation (paper §IV).
func (d Digest) Uint64() uint64 { return binary.BigEndian.Uint64(d[:8]) }

// Hash computes the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// Transaction is a client-signed request ⟨T⟩_c. Op is an opaque payload
// interpreted by the application (YCSB operation, bank transfer, ...).
type Transaction struct {
	Client ClientID
	Seq    uint64 // per-client sequence number
	Op     []byte
}

// NoOp returns the small no-op transaction a primary proposes when it has no
// client transactions but observes other instances progressing (§III-E).
func NoOp() Transaction { return Transaction{Client: 0, Seq: 0, Op: nil} }

// IsNoOp reports whether t is a no-op transaction.
func (t *Transaction) IsNoOp() bool { return t.Client == 0 && t.Seq == 0 && len(t.Op) == 0 }

// txnHeaderLen is the fixed part of an encoded transaction: client, seq and
// op length.
const txnHeaderLen = 4 + 8 + 4

// Marshal appends the deterministic encoding of t to buf.
func (t *Transaction) Marshal(buf []byte) []byte { return append(t.appendHeader(buf), t.Op...) }

// appendHeader appends the fixed part of t's encoding: client, seq and op
// length.
func (t *Transaction) appendHeader(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Client))
	buf = binary.BigEndian.AppendUint64(buf, t.Seq)
	return binary.BigEndian.AppendUint32(buf, uint32(len(t.Op)))
}

// errTxnsTruncated is shared so refusing hostile lengths allocates nothing.
var errTxnsTruncated = errors.New("types: transactions truncated")

// decodeTxns decodes n consecutive transaction encodings from buf and
// returns them with the rest of buf. n and every op length arrive from the
// network, so all of them are checked against buf before anything is
// allocated. The ops are then copied out of buf — a transport read buffer
// that is reused after decode — into one shared allocation; each Op is a
// capacity-capped sub-slice of it, so appending to one op reallocates
// instead of writing into the next.
func decodeTxns(buf []byte, n int) ([]Transaction, []byte, error) {
	if n > len(buf)/txnHeaderLen {
		return nil, nil, errTxnsTruncated
	}
	opBytes, rest := 0, buf
	for i := 0; i < n; i++ {
		if len(rest) < txnHeaderLen {
			return nil, nil, errTxnsTruncated
		}
		l := int(binary.BigEndian.Uint32(rest[12:]))
		if len(rest)-txnHeaderLen < l {
			return nil, nil, errTxnsTruncated
		}
		opBytes += l
		rest = rest[txnHeaderLen+l:]
	}
	txns := make([]Transaction, n)
	var ops []byte
	if opBytes > 0 {
		ops = make([]byte, opBytes)
	}
	for i := range txns {
		t := &txns[i]
		t.Client = ClientID(binary.BigEndian.Uint32(buf))
		t.Seq = binary.BigEndian.Uint64(buf[4:])
		l := int(binary.BigEndian.Uint32(buf[12:]))
		buf = buf[txnHeaderLen:]
		if l > 0 { // a zero length decodes as nil so round-trips keep nil-ness
			copy(ops, buf[:l])
			t.Op, ops = ops[:l:l], ops[l:]
		}
		buf = buf[l:]
	}
	return txns, rest, nil
}

// Batch groups client transactions into one proposal (§V-B: ResilientDB
// typically groups 100 txn/batch to amortize consensus cost).
type Batch struct {
	Txns []Transaction
}

// Marshal appends the deterministic encoding of b to buf.
func (b *Batch) Marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Txns)))
	for i := range b.Txns {
		buf = b.Txns[i].Marshal(buf)
	}
	return buf
}

// EncodedLen returns len(b.Marshal(nil)) without encoding.
func (b *Batch) EncodedLen() int {
	n := 4
	for i := range b.Txns {
		n += txnHeaderLen + len(b.Txns[i].Op)
	}
	return n
}

// UnmarshalBatch decodes a batch from buf, returning the rest. The batch's
// ops share one allocation (see decodeTxns).
func UnmarshalBatch(buf []byte) (*Batch, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errTxnsTruncated
	}
	txns, rest, err := decodeTxns(buf[4:], int(binary.BigEndian.Uint32(buf)))
	if err != nil {
		return nil, nil, err
	}
	return &Batch{Txns: txns}, rest, nil
}

// Digest returns the digest identifying the batch: the hash of its Marshal
// encoding. The encoding is never materialized: it reaches the hash in
// chunks of a fixed stack buffer, and an op too large for the buffer is
// written directly, so hashing allocates nothing.
func (b *Batch) Digest() Digest {
	h := sha256.New()
	var buf [1024]byte
	chunk := binary.BigEndian.AppendUint32(buf[:0], uint32(len(b.Txns)))
	for i := range b.Txns {
		t := &b.Txns[i]
		n := txnHeaderLen + len(t.Op)
		if len(chunk)+n > cap(chunk) {
			h.Write(chunk)
			chunk = chunk[:0]
		}
		if n <= cap(chunk) {
			chunk = t.Marshal(chunk)
			continue
		}
		h.Write(t.appendHeader(chunk))
		h.Write(t.Op)
		chunk = chunk[:0]
	}
	h.Write(chunk)
	var d Digest
	h.Sum(d[:0])
	return d
}

// Len returns the number of transactions in the batch.
func (b *Batch) Len() int { return len(b.Txns) }

// IsNoOp reports whether the batch is a single no-op filler.
func (b *Batch) IsNoOp() bool { return len(b.Txns) == 1 && b.Txns[0].IsNoOp() }

// NoOpBatch returns a batch holding a single no-op transaction.
func NoOpBatch() *Batch { return &Batch{Txns: []Transaction{NoOp()}} }

// Wire-size constants from the paper (§V-B).
const (
	// ProposalBytesPerTxn is the proposal size per transaction: a
	// 100-transaction proposal is 5400 B.
	ProposalBytesPerTxn = 54
	// ReplyBytesPerTxn is the client-reply size per transaction: a reply
	// for 100 transactions is 1748 B (rounded up).
	ReplyBytesPerTxn = 18
	// ConsensusMsgBytes is the size of every non-proposal consensus
	// message (PREPARE, COMMIT, votes, shares, ...): 250 B.
	ConsensusMsgBytes = 250
	// ClientRequestBytes is the size of one client transaction on the
	// wire (Fig. 1 uses 512 B individual transactions); a request carrying
	// k transactions is charged k times this.
	ClientRequestBytes = 512
)

// ProposalWireSize returns the simulated wire size of a proposal carrying
// batchSize transactions.
func ProposalWireSize(batchSize int) int {
	if batchSize < 1 {
		batchSize = 1
	}
	return ProposalBytesPerTxn * batchSize
}

// ReplyWireSize returns the simulated wire size of a client reply covering
// batchSize transactions.
func ReplyWireSize(batchSize int) int {
	if batchSize < 1 {
		batchSize = 1
	}
	return ReplyBytesPerTxn * batchSize
}
