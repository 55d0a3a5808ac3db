package sm

import (
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// ClientEnv is the effect interface a runtime provides to a client machine.
type ClientEnv interface {
	// Client returns the local client's identity.
	Client() types.ClientID
	// Params returns the deployment's quorum parameters.
	Params() quorum.Params
	// Send transmits m to a replica.
	Send(to types.ReplicaID, m types.Message)
	// Broadcast transmits m to all replicas.
	Broadcast(m types.Message)
	// SetTimer arms (or re-arms) timer id to fire after d.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer disarms timer id.
	CancelTimer(id TimerID)
	// Now returns monotonic (possibly virtual) time.
	Now() time.Duration
	// Logf records a debug line.
	Logf(format string, args ...any)
}

// ClientMachine is a deterministic client-side state machine (request
// submission, reply collection, retransmission, instance switching).
type ClientMachine interface {
	Start(env ClientEnv)
	OnMessage(from types.ReplicaID, m types.Message)
	OnTimer(id TimerID)
	// Flush sends what Start, OnMessage and OnTimer queued for sending.
	// Hosts call it after Start and after each run of events: a runtime
	// after handling one event plus every event already queued behind it,
	// a simulator after each event.
	Flush()
}
