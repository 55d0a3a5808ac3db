package types

import "fmt"

// MsgType discriminates the messages in the shared catalog.
type MsgType uint8

// Message type constants. The catalog is shared: PBFT and RCC both route
// messages by (InstanceID, MsgType).
const (
	MsgInvalid MsgType = iota

	// Client interaction.
	MsgClientRequest
	MsgClientReply
	MsgSwitchInstance // client requests reassignment to another instance (§III-E)

	// PBFT-style Byzantine commit algorithm (§III-A).
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgCheckpoint
	MsgViewChange
	MsgNewView

	// RCC recovery (§III-C, Fig. 4).
	MsgFailure // FAILURE(i, ρ, P)
	MsgStop    // stop(i; E) proposed via the coordinating consensus P

	// Checkpoint-based state transfer (internal/statesync): lagging or
	// wiped replicas fetch an f+1-attested snapshot plus the ledger suffix
	// from their peers instead of replaying history they no longer have.
	MsgStateOffer
	MsgSnapshotRequest
	MsgSnapshotChunk
	MsgBlockRangeRequest
	MsgBlockRange

	msgTypeEnd // one past the last message type
)

var msgTypeNames = map[MsgType]string{
	MsgInvalid:        "INVALID",
	MsgClientRequest:  "CLIENT-REQUEST",
	MsgClientReply:    "CLIENT-REPLY",
	MsgSwitchInstance: "SWITCH-INSTANCE",
	MsgPrePrepare:     "PREPREPARE",
	MsgPrepare:        "PREPARE",
	MsgCommit:         "COMMIT",
	MsgCheckpoint:     "CHECKPOINT",
	MsgViewChange:     "VIEW-CHANGE",
	MsgNewView:        "NEW-VIEW",
	MsgFailure:        "FAILURE",
	MsgStop:           "STOP",

	MsgStateOffer:        "STATE-OFFER",
	MsgSnapshotRequest:   "SNAPSHOT-REQUEST",
	MsgSnapshotChunk:     "SNAPSHOT-CHUNK",
	MsgBlockRangeRequest: "BLOCK-RANGE-REQUEST",
	MsgBlockRange:        "BLOCK-RANGE",
}

func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is the interface implemented by every protocol message.
type Message interface {
	// Type returns the message discriminator.
	Type() MsgType
	// Instance returns the consensus instance the message belongs to.
	Instance() InstanceID
	// WireSize returns the simulated size in bytes charged against
	// network bandwidth (paper §V-B constants).
	WireSize() int
}

// Header is embedded by all messages for the common fields.
type Header struct {
	Inst InstanceID
}

func (h Header) Instance() InstanceID { return h.Inst }

// ---------------------------------------------------------------------------
// Client interaction
// ---------------------------------------------------------------------------

// ClientRequest carries transactions of one client to the replicas under one
// authenticator tag: a client sends everything it put in flight since its
// last flush as one request per destination set, so a replica verifies one
// tag per request, not one per transaction. The replica runtime refuses a
// request naming any client other than the one whose link delivered it.
type ClientRequest struct {
	Header
	Txns []Transaction // one client's transactions, submission order; never empty
	// Tx is derived, always Txns[0] (set by NewClientRequest and the
	// decoder; neither encoded nor authenticated). It remains for readers
	// that still key requests by one transaction.
	Tx Transaction
}

// NewClientRequest builds a request routed to instance inst carrying txns
// (one client's, non-empty).
func NewClientRequest(inst InstanceID, txns ...Transaction) *ClientRequest {
	m := &ClientRequest{Header: Header{Inst: inst}, Txns: txns}
	if len(txns) > 0 {
		m.Tx = txns[0]
	}
	return m
}

func (m *ClientRequest) Type() MsgType { return MsgClientRequest }
func (m *ClientRequest) WireSize() int { return len(m.Txns) * ClientRequestBytes }

// ClientReply informs one client of the outcome of one decided batch: a
// replica sends one reply per (client, decided batch), listing every
// sequence number of that client the batch carried, with one authenticator
// tag — the paper's §V-B reply (1 748 B per 100-transaction batch). The
// client completes each listed in-flight seq on f+1 matching replies.
type ClientReply struct {
	Header
	Replica ReplicaID
	Client  ClientID
	Seqs    []uint64 // the client's seqs in the batch, batch order; never empty
	// Seq is derived, always Seqs[0] (set by NewClientReply and the
	// decoder; neither encoded nor authenticated). It remains for readers
	// that still key replies by one seq.
	Seq    uint64
	Round  Round
	Result Digest // digest of the batch's execution result
}

// NewClientReply builds a reply covering seqs (batch order, non-empty).
func NewClientReply(inst InstanceID, replica ReplicaID, client ClientID, round Round, result Digest, seqs []uint64) *ClientReply {
	m := &ClientReply{Header: Header{Inst: inst}, Replica: replica, Client: client, Seqs: seqs, Round: round, Result: result}
	if len(seqs) > 0 {
		m.Seq = seqs[0]
	}
	return m
}

func (m *ClientReply) Type() MsgType { return MsgClientReply }
func (m *ClientReply) WireSize() int { return ReplyWireSize(len(m.Seqs)) }

// SwitchInstance is a client request to be reassigned from its current
// instance to instance To (§III-E). It is agreed upon via the coordinating
// consensus of the client's current instance.
type SwitchInstance struct {
	Header
	Client ClientID
	To     InstanceID
}

func (m *SwitchInstance) Type() MsgType { return MsgSwitchInstance }
func (m *SwitchInstance) WireSize() int { return ConsensusMsgBytes }

// ---------------------------------------------------------------------------
// PBFT-style Byzantine commit (RCC's instances and the coordinating
// consensus for RCC recovery)
// ---------------------------------------------------------------------------

// PrePrepare is the primary's proposal of a batch as the Round-th
// transaction set of its instance in view View.
type PrePrepare struct {
	Header
	View   View
	Round  Round
	Digest Digest
	Batch  *Batch // nil in digest-only retransmissions
}

func (m *PrePrepare) Type() MsgType { return MsgPrePrepare }
func (m *PrePrepare) WireSize() int {
	if m.Batch == nil {
		return ConsensusMsgBytes
	}
	return ProposalWireSize(m.Batch.Len())
}

// PhaseVote is the shared shape of PREPARE/COMMIT-style votes.
type PhaseVote struct {
	Header
	Replica ReplicaID
	View    View
	Round   Round
	Digest  Digest
}

func (m *PhaseVote) WireSize() int { return ConsensusMsgBytes }

// Prepare is a replica's PREPARE vote for a preprepared proposal.
type Prepare struct{ PhaseVote }

// NewPrepare builds a PREPARE vote.
func NewPrepare(inst InstanceID, r ReplicaID, v View, rnd Round, d Digest) *Prepare {
	return &Prepare{PhaseVote{Header{inst}, r, v, rnd, d}}
}

func (m *Prepare) Type() MsgType { return MsgPrepare }

// Commit is a replica's COMMIT vote for a prepared proposal.
type Commit struct{ PhaseVote }

// NewCommit builds a COMMIT vote.
func NewCommit(inst InstanceID, r ReplicaID, v View, rnd Round, d Digest) *Commit {
	return &Commit{PhaseVote{Header{inst}, r, v, rnd, d}}
}

func (m *Commit) Type() MsgType { return MsgCommit }

// Checkpoint carries a replica's state digest at a round boundary; nf
// matching checkpoints let in-the-dark replicas recover (§III-D).
type Checkpoint struct {
	Header
	Replica ReplicaID
	Round   Round
	State   Digest
	// Proposals carries the accepted proposals of the sender since the
	// previous stable checkpoint so in-the-dark replicas can catch up.
	Proposals []AcceptedProposal
}

func (m *Checkpoint) Type() MsgType { return MsgCheckpoint }
func (m *Checkpoint) WireSize() int {
	sz := ConsensusMsgBytes
	for i := range m.Proposals {
		if b := m.Proposals[i].Batch; b != nil {
			sz += ProposalWireSize(b.Len())
		}
	}
	return sz
}

// AcceptedProposal is one accepted (round, batch) pair together with the
// view in which it was accepted. It is the unit of state exchanged by
// checkpoints, FAILURE messages, and view changes (Assumption A3).
type AcceptedProposal struct {
	Round  Round
	View   View
	Digest Digest
	Batch  *Batch
	// Prepared reports whether the sender holds a prepared certificate
	// (nf PREPARE votes) for the proposal, as opposed to merely having
	// received the preprepare.
	Prepared bool
}

// ViewChange announces that a replica moved to view NewView and carries its
// prepared-proposal state (PBFT view change).
type ViewChange struct {
	Header
	Replica   ReplicaID
	NewView   View
	StableCkp Round
	Prepared  []AcceptedProposal
}

func (m *ViewChange) Type() MsgType { return MsgViewChange }
func (m *ViewChange) WireSize() int {
	sz := ConsensusMsgBytes
	for i := range m.Prepared {
		if b := m.Prepared[i].Batch; b != nil {
			sz += ProposalWireSize(b.Len())
		}
	}
	return sz
}

// NewView is the new primary's announcement of view NewView, carrying the
// proposals that must be re-proposed.
type NewView struct {
	Header
	Replica    ReplicaID
	NewView    View
	ViewProofs []ReplicaID // replicas whose VIEW-CHANGE messages justify the new view
	Reproposed []AcceptedProposal
}

func (m *NewView) Type() MsgType { return MsgNewView }
func (m *NewView) WireSize() int {
	sz := ConsensusMsgBytes
	for i := range m.Reproposed {
		if b := m.Reproposed[i].Batch; b != nil {
			sz += ProposalWireSize(b.Len())
		}
	}
	return sz
}

// ---------------------------------------------------------------------------
// RCC recovery (paper Fig. 4)
// ---------------------------------------------------------------------------

// Failure is the FAILURE(i, ρ, P) message of the RCC recovery protocol: the
// sender detected failure of the primary of instance Inst in round Round and
// attaches its per-instance state P (accepted proposals, Assumption A3).
type Failure struct {
	Header
	Replica ReplicaID
	Round   Round
	State   []AcceptedProposal
	// Light indicates the state was elided (full state goes to the
	// coordinating leader only; everyone else gets FAILURE(i, ρ)).
	Light bool
}

func (m *Failure) Type() MsgType { return MsgFailure }
func (m *Failure) WireSize() int {
	if m.Light {
		return ConsensusMsgBytes
	}
	sz := ConsensusMsgBytes
	for i := range m.State {
		if b := m.State[i].Batch; b != nil {
			sz += ProposalWireSize(b.Len())
		}
	}
	return sz
}

// Stop is the stop(i; E) operation replicated by the coordinating consensus
// protocol: E is a set of nf FAILURE messages from distinct replicas from
// which the accepted state of instance Inst can be recovered.
type Stop struct {
	Header
	Target   InstanceID
	Evidence []*Failure
}

func (m *Stop) Type() MsgType { return MsgStop }
func (m *Stop) WireSize() int {
	sz := ConsensusMsgBytes
	for _, f := range m.Evidence {
		sz += f.WireSize()
	}
	return sz
}
