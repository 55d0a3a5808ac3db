package types

// ---------------------------------------------------------------------------
// Zyzzyva
// ---------------------------------------------------------------------------

// OrderRequest is the Zyzzyva primary's speculative order assignment: the
// primary assigns Round to Batch and broadcasts; replicas speculatively
// execute and answer the client directly.
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

// SpecResponse is a replica's speculative response, sent directly to the
// client. A client accepts when it collects 3f+1 matching responses; with
// only 2f+1..3f it assembles a CommitCert.
type SpecResponse struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	History Digest
	Result  Digest
	Client  ClientID
	Count   int
}

func (m *SpecResponse) Type() MsgType { return MsgSpecResponse }
func (m *SpecResponse) WireSize() int { return ReplyWireSize(m.Count) }

// CommitCert carries 2f+1 matching spec responses gathered by a client that
// could not reach the fast path; replicas answer with LocalCommit.
type CommitCert struct {
	Header
	Client    ClientID
	View      View
	Round     Round
	History   Digest
	Responses []ReplicaID // replicas whose spec responses form the certificate
}

func (m *CommitCert) Type() MsgType { return MsgCommitCert }
func (m *CommitCert) WireSize() int { return ConsensusMsgBytes + 48*len(m.Responses) }

// LocalCommit is a replica's acknowledgement of a commit certificate.
type LocalCommit struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	History Digest
	Client  ClientID
}

func (m *LocalCommit) Type() MsgType { return MsgLocalCommit }
func (m *LocalCommit) WireSize() int { return ConsensusMsgBytes }

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

// IHatePrimary is a replica's accusation that starts a Zyzzyva view change.
type IHatePrimary struct {
	Header
	Replica ReplicaID
	View    View
}

func (m *IHatePrimary) Type() MsgType { return MsgIHatePrimary }
func (m *IHatePrimary) WireSize() int { return ConsensusMsgBytes }

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
// HotStuff (event-based chained variant)
// ---------------------------------------------------------------------------

// QuorumCert is a quorum certificate over a HotStuff block.
type QuorumCert struct {
	View    View
	Round   Round
	Block   Digest
	Signers []ReplicaID
}

// HSProposal is the leader's block proposal extending the block certified
// by Justify.
type HSProposal struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	Parent  Digest
	Digest  Digest
	Batch   *Batch
	Justify QuorumCert
}

func (m *HSProposal) Type() MsgType { return MsgHSProposal }
func (m *HSProposal) WireSize() int {
	if m.Batch == nil {
		return ConsensusMsgBytes
	}
	return ProposalWireSize(m.Batch.Len())
}

// HSVote is a replica's vote on a proposal, sent to the next leader.
type HSVote struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	Block   Digest
	Share   []byte
}

func (m *HSVote) Type() MsgType { return MsgHSVote }
func (m *HSVote) WireSize() int { return ConsensusMsgBytes }

// HSNewView carries a replica's highest QC to the next leader on timeout.
type HSNewView struct {
	Header
	Replica ReplicaID
	View    View
	HighQC  QuorumCert
}

func (m *HSNewView) Type() MsgType { return MsgHSNewView }
func (m *HSNewView) WireSize() int { return ConsensusMsgBytes }

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
