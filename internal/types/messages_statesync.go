package types

// State-transfer message catalog (internal/statesync). A replica that is
// behind — wiped, corrupted, or long-partitioned — probes its peers, picks
// an f+1-attested target, fetches the latest snapshot in bounded chunks
// plus the ledger suffix from snapshot height to head, verifies everything
// against the attested digests, and installs the result. These messages are
// handled by the replica runtime, never by the consensus machines.

// NoChunk marks a SnapshotRequest that probes for a StateOffer instead of
// asking for a chunk.
const NoChunk = uint32(0xFFFFFFFF)

// StateOffer advertises the durable state a replica can serve: its latest
// application snapshot (identified by content digests so the fetcher can
// verify what it receives) and its current ledger head. A fetcher trusts a
// live head only once f+1 distinct replicas advertise byte-identical offers,
// and a checkpoint once f+1 advertise byte-identical snapshot fields and
// SnapSyncPoint — at least one of them is honest, so the digests inside are
// real.
type StateOffer struct {
	Header
	Replica ReplicaID
	// SnapHeight is the ledger height of the advertised snapshot (the
	// number of blocks its state covers); 0 when the sender has no
	// snapshot and can only serve block ranges.
	SnapHeight uint64
	// SnapSize is the snapshot's serialized application state in bytes.
	SnapSize uint64
	// ChunkBytes is the chunk size the sender serves (the last chunk may
	// be shorter).
	ChunkBytes uint32
	// SnapAppHash is the SHA-256 of the snapshot's application-state
	// bytes: the fetcher verifies the reassembled chunks against it.
	SnapAppHash Digest
	// SnapHeadHash is the hash of block SnapHeight-1 — the anchor the
	// fetched block range must chain from.
	SnapHeadHash Digest
	// SnapStateDigest is block SnapHeight-1's StateHash (the application's
	// own digest at the snapshot point).
	SnapStateDigest Digest
	// TxnCount is the cumulative transaction count of the chain through
	// SnapHeight (restarted replicas must resume the executed counter to
	// keep client replies identical to peers').
	TxnCount uint64
	// SnapSyncPoint is the consensus machine's frontier serialized at the
	// snapshot's delivery boundary (sm.BoundarySyncable); empty when the
	// machine cannot serialize one. It is a pure function of the delivery
	// prefix, so correct replicas that checkpointed SnapHeight send
	// identical bytes even while their live heads differ, and f+1
	// identical checkpoint fields make the snapshot a target under load.
	SnapSyncPoint []byte
	// Height and HeadHash name the sender's current ledger head; blocks
	// [SnapHeight, Height) are fetchable as ranges.
	Height   uint64
	HeadHash Digest
	// SyncPoint is the consensus machine's deterministic frontier
	// serialization (sm.StateSyncable), consistent with Height: installing
	// it lets the fetcher's machine rejoin at the head instead of waiting
	// on rounds that were decided while it was gone.
	SyncPoint []byte
}

func (m *StateOffer) Type() MsgType { return MsgStateOffer }
func (m *StateOffer) WireSize() int {
	return ConsensusMsgBytes + len(m.SnapSyncPoint) + len(m.SyncPoint)
}

// SnapshotRequest asks a peer either for its StateOffer (Chunk == NoChunk, a
// probe) or for one chunk of the snapshot at Height.
type SnapshotRequest struct {
	Header
	Replica ReplicaID // requester
	Height  uint64    // snapshot height wanted; ignored for probes
	Chunk   uint32    // chunk index, or NoChunk for a probe
}

// IsProbe reports whether the request asks for a StateOffer.
func (m *SnapshotRequest) IsProbe() bool { return m.Chunk == NoChunk }

func (m *SnapshotRequest) Type() MsgType { return MsgSnapshotRequest }
func (m *SnapshotRequest) WireSize() int { return ConsensusMsgBytes }

// SnapshotChunk carries chunk Chunk (of Of total) of the application-state
// bytes of the snapshot at Height. Chunks are worthless individually: the
// fetcher reassembles all Of chunks and verifies the whole against the
// attested SnapAppHash before anything is installed.
type SnapshotChunk struct {
	Header
	Replica ReplicaID // sender
	Height  uint64
	Chunk   uint32
	Of      uint32 // total chunk count
	Data    []byte
}

func (m *SnapshotChunk) Type() MsgType { return MsgSnapshotChunk }
func (m *SnapshotChunk) WireSize() int { return ConsensusMsgBytes + len(m.Data) }

// BlockRangeRequest asks for the encoded ledger blocks of heights
// [From, To). Servers may answer with fewer blocks than asked (bounded
// response size); the fetcher advances From and asks again.
type BlockRangeRequest struct {
	Header
	Replica ReplicaID // requester
	From    uint64
	To      uint64
}

func (m *BlockRangeRequest) Type() MsgType { return MsgBlockRangeRequest }
func (m *BlockRangeRequest) WireSize() int { return ConsensusMsgBytes }

// BlockRange answers a BlockRangeRequest: Blocks[i] is the wire encoding
// (ledger.EncodeBlock) of the block at height From+i. The fetcher verifies
// every block against the chain's hash links before installing — a range
// served at the wrong height, or with substituted blocks, fails the link to
// the attested anchor.
type BlockRange struct {
	Header
	Replica ReplicaID // sender
	From    uint64
	Blocks  [][]byte
}

func (m *BlockRange) Type() MsgType { return MsgBlockRange }
func (m *BlockRange) WireSize() int {
	sz := ConsensusMsgBytes
	for _, b := range m.Blocks {
		sz += len(b)
	}
	return sz
}
