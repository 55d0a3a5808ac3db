package types

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
