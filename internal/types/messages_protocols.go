package types

// ---------------------------------------------------------------------------
// Zyzzyva
// ---------------------------------------------------------------------------

// OrderRequest is the Zyzzyva primary's speculative order assignment: the
// primary assigns Round to Batch and broadcasts; replicas deliver it in
// round order.
type OrderRequest struct {
	Header
	View    View
	Round   Round
	History Digest // hash chain over all order requests up to Round
	Digest  Digest
	Batch   *Batch
}

func (m *OrderRequest) Type() MsgType { return MsgOrderRequest }
func (m *OrderRequest) WireSize() int {
	if m.Batch == nil {
		return ConsensusMsgBytes
	}
	return ProposalWireSize(m.Batch.Len())
}

// FillHole asks the primary to retransmit order requests the sender missed.
type FillHole struct {
	Header
	Replica ReplicaID
	View    View
	From    Round
	To      Round
}

func (m *FillHole) Type() MsgType { return MsgFillHole }
func (m *FillHole) WireSize() int { return ConsensusMsgBytes }

// ---------------------------------------------------------------------------
// SBFT
// ---------------------------------------------------------------------------

// SignShare is a replica's threshold-signature share over a proposal, sent
// to the round's collector instead of being broadcast (linear phase).
type SignShare struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	Digest  Digest
	Share   []byte
}

func (m *SignShare) Type() MsgType { return MsgSignShare }
func (m *SignShare) WireSize() int { return ConsensusMsgBytes }

// FullCommitProof is the collector's combined threshold signature proving
// that nf replicas signed the proposal; receiving it commits the round.
type FullCommitProof struct {
	Header
	Replica  ReplicaID
	View     View
	Round    Round
	Digest   Digest
	Combined []byte
}

func (m *FullCommitProof) Type() MsgType { return MsgFullCommitProof }
func (m *FullCommitProof) WireSize() int { return ConsensusMsgBytes }

// SignStateShare is a replica's post-execution share over the resulting
// state, sent to the collector.
type SignStateShare struct {
	Header
	Replica ReplicaID
	Round   Round
	State   Digest
	Share   []byte
}

func (m *SignStateShare) Type() MsgType { return MsgSignStateShare }
func (m *SignStateShare) WireSize() int { return ConsensusMsgBytes }

// FullExecuteProof is the collector's combined execution proof.
type FullExecuteProof struct {
	Header
	Replica  ReplicaID
	Round    Round
	State    Digest
	Combined []byte
}

func (m *FullExecuteProof) Type() MsgType { return MsgFullExecuteProof }
func (m *FullExecuteProof) WireSize() int { return ConsensusMsgBytes }

// ---------------------------------------------------------------------------
// Mir-BFT-style epoch coordination
// ---------------------------------------------------------------------------

// EpochChange announces that a replica wants to move to epoch Epoch after
// observing an instance failure; it halts all instances until NewEpoch.
type EpochChange struct {
	Header
	Replica ReplicaID
	Epoch   uint64
	Failed  InstanceID
	Round   Round
}

func (m *EpochChange) Type() MsgType { return MsgEpochChange }
func (m *EpochChange) WireSize() int { return ConsensusMsgBytes }

// NewEpoch is the super-primary's configuration for epoch Epoch: the set of
// leaders enabled in the new epoch and the common round at which every
// instance resumes (a locally-derived resume round would diverge across
// replicas and make them reject each other's proposals).
type NewEpoch struct {
	Header
	Replica    ReplicaID
	Epoch      uint64
	Leaders    []ReplicaID
	StartRound Round
}

func (m *NewEpoch) Type() MsgType { return MsgNewEpoch }
func (m *NewEpoch) WireSize() int { return ConsensusMsgBytes + 2*len(m.Leaders) }
