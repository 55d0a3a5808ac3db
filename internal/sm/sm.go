// Package sm defines the deterministic state-machine framework every
// consensus protocol in this repository is written against.
//
// A protocol is a Machine: a piece of sequential, deterministic code that
// reacts to messages and timers by emitting effects through its Env (send,
// broadcast, deliver a decision, arm a timer). The same machine code runs
// unchanged under
//
//   - the deterministic discrete-event simulator (internal/simnet),
//   - the goroutine/TCP replica runtime (internal/runtime), and
//   - unit tests (the synchronous Bus in this package),
//
// which is what makes property testing and failure injection of the
// protocols possible.
package sm

import (
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TimerKind discriminates protocol timers.
type TimerKind uint8

// Timer kinds used across the protocols.
const (
	TimerProgress    TimerKind = iota + 1 // BCA round progress (failure detection)
	TimerViewChange                       // view-change completion
	TimerRecovery                         // RCC: waiting for the coordinating leader's stop proposal
	TimerRebroadcast                      // RCC: exponential FAILURE rebroadcast
	TimerBatch                            // primary batch-formation deadline
	TimerClient                           // client retransmission: one per client, due at its earliest retry deadline
	TimerLag                              // RCC: throttling/lag detection (σ rounds behind)
)

// TimerID identifies one timer of one instance.
type TimerID struct {
	Instance types.InstanceID
	Kind     TimerKind
	Round    types.Round
}

// Source identifies the origin of a message: a replica or a client.
type Source struct {
	Replica  types.ReplicaID
	Client   types.ClientID
	IsClient bool
}

// FromReplica builds a replica source.
func FromReplica(r types.ReplicaID) Source { return Source{Replica: r} }

// FromClient builds a client source.
func FromClient(c types.ClientID) Source { return Source{Client: c, IsClient: true} }

// Decision is an accepted consensus value: instance Inst decided Batch in
// round Round. Signers records the commit certificate for the ledger proof.
type Decision struct {
	Instance types.InstanceID
	Round    types.Round
	View     types.View
	Digest   types.Digest
	Batch    *types.Batch
	Signers  []types.ReplicaID
}

// Env is the effect interface a runtime provides to a machine. All calls
// happen from the machine's own event loop; implementations need not be
// re-entrant for a single replica.
type Env interface {
	// ID returns the local replica.
	ID() types.ReplicaID
	// Params returns the deployment's quorum parameters.
	Params() quorum.Params

	// Send transmits m to one replica. Sending to the local replica
	// enqueues m for local processing (self-delivery).
	Send(to types.ReplicaID, m types.Message)
	// Broadcast transmits m to every replica including the sender
	// (self-delivery is local and free of network cost).
	Broadcast(m types.Message)
	// SendClient transmits m to a client.
	SendClient(c types.ClientID, m types.Message)

	// Deliver reports a decision ready for ordering/execution. Decisions
	// are delivered in the unified order, and the runtime executes each
	// batch in that order.
	Deliver(d Decision)

	// SetTimer arms (or re-arms) timer id to fire after d.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer disarms timer id; canceling an unarmed timer is a
	// no-op.
	CancelTimer(id TimerID)

	// Now returns monotonic (possibly virtual) time since runtime start.
	Now() time.Duration

	// Suspect reports a detected failure of the primary of instance
	// inst at round round. Under RCC this triggers the recovery protocol
	// (Fig. 4); standalone protocols may ignore it and handle failure
	// internally via view changes.
	Suspect(inst types.InstanceID, round types.Round)

	// Logf records a debug line. Runtimes may discard it.
	Logf(format string, args ...any)
}

// Machine is a deterministic protocol state machine.
type Machine interface {
	// Start initializes the machine (arm timers, send initial messages).
	Start(env Env)
	// OnMessage processes one incoming message.
	OnMessage(from Source, m types.Message)
	// OnTimer processes one fired timer.
	OnTimer(id TimerID)
}

// Suspector is implemented by client-facing machines that can be told a
// request went unserved (used to detect primaries refusing service,
// §III-E).
type Suspector interface {
	SuspectClientNeglect(c types.ClientID)
}

// StateSyncable is the checkpoint-based state-transfer capability
// (internal/statesync). The replica runtime requires it: runtime.New refuses
// a machine without it, and both RCC and standalone PBFT implement it. A
// machine hands its delivered frontier to a lagging peer and jumps its own
// frontier to an attested install point, so a replica that installed a
// snapshot + ledger suffix rejoins consensus at the cluster head instead of
// waiting on rounds that were decided while it was gone.
type StateSyncable interface {
	// SyncPoint returns a deterministic serialization of the machine's
	// delivered frontier (round watermarks, checkpoint chain anchors),
	// consistent with the ledger head at the moment of the call. Two
	// honest replicas with identical frontiers return identical bytes —
	// which is what lets a fetcher demand f+1 byte-identical sync points
	// before trusting one. Returns nil when the machine (or one of its
	// nested instances) cannot serialize its frontier; state transfer is
	// then unavailable on this deployment.
	SyncPoint() []byte
	// ValidateSyncPoint checks that data is a well-formed sync point this
	// machine could install, WITHOUT mutating anything. Runtimes call it
	// before committing the expensive ledger install so a malformed or
	// incompatible frontier is rejected while the transfer is still fully
	// retryable, and InstallSyncPoint cannot fail halfway through.
	ValidateSyncPoint(data []byte) error
	// InstallSyncPoint adopts a sync point obtained from f+1 attesting
	// peers: every round below the encoded frontier is treated as
	// delivered-elsewhere (the ledger install covers their effects), and
	// the machine resumes participation at the frontier. Consensus state
	// the machine accumulated ABOVE the frontier (votes and commits that
	// arrived while the transfer ran) is preserved and delivered in order.
	InstallSyncPoint(data []byte) error
}

// BoundarySyncable is the one optional sync capability, implemented by
// StateSyncable machines whose live frontier is NOT deterministic at a
// ledger height (RCC: inner instances and the coordinating consensus run
// ahead of the wave-unified delivery frontier, at quorum-dependent speeds;
// standalone PBFT does not implement it). BoundarySyncPoint
// serializes the frontier as it stands at the machine's current delivery
// boundary — a pure function of the delivery prefix — so every correct
// replica serializes identical bytes when its ledger stands at the same
// height, no quiescence required. That is the property state transfer's
// checkpoint targets rest on: each replica's StateOffer carries its own
// serialization taken at snapshot time, and a fetcher trusts a checkpoint
// only when f+1 offers carry identical bytes.
//
// A machine implementing this interface also takes over the periodic
// checkpoint cadence: the runtime defers cadence-triggered snapshots
// (CheckpointDue) and the machine persists them at its next delivery
// boundary via CheckpointSink, so the snapshot and the boundary sync point
// describe the same instant.
type BoundarySyncable interface {
	StateSyncable
	// BoundarySyncPoint serializes the delivery-boundary frontier, in the
	// same wire format InstallSyncPoint accepts. Returns nil when the
	// boundary cannot be serialized right now (e.g. a checkpoint chain
	// value at the boundary was garbage-collected, or a recovery is in
	// flight); offers then carry no boundary frontier for this snapshot.
	BoundarySyncPoint() []byte
}

// DeferredCheckpointer is optionally implemented by an Env whose runtime
// defers cadence snapshots to machine-announced delivery boundaries (see
// BoundarySyncable). CheckpointDue consumes the pending-cadence flag: it
// returns true at most once per cadence trigger, and the machine responds
// by calling CheckpointSink.PersistCheckpoint at its current boundary.
type DeferredCheckpointer interface {
	CheckpointDue() bool
}

// StateSyncRequester is optionally implemented by an Env whose runtime can
// run checkpoint-based state transfer. Machines call it when they detect
// they are in the dark beyond what in-protocol catch-up can bridge — e.g. a
// certified checkpoint whose body no longer reaches back to the local
// frontier. The runtime coalesces requests; calling it repeatedly is cheap.
type StateSyncRequester interface {
	RequestStateSync()
}

// CheckpointSink is optionally implemented by an Env whose runtime can
// persist execution-state checkpoints (the durable snapshot store). RCC
// calls it when a dynamic per-need checkpoint runs (§III-D), so the
// in-protocol catch-up point also becomes a crash-restart recovery point on
// disk. Runtimes without durable storage simply do not implement it.
type CheckpointSink interface {
	PersistCheckpoint()
}
