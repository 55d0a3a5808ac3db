package rcc

import (
	"repro/internal/sm"
	"repro/internal/types"
)

// subEnv is the environment handed to each nested consensus: it passes
// every effect through to the outer environment but intercepts Deliver,
// Suspect and RequestStateSync. A BCA instance's decisions go to round
// ordering and its suspicions to the Fig. 4 recovery instead of a view
// change. A coordinating consensus (coord) hands its decisions (stop
// operations, reassignments) to the manager, and its view changes never
// escalate.
type subEnv struct {
	sm.Env
	mgr   *Replica
	inst  types.InstanceID // the BCA instance this consensus is or recovers
	coord bool
}

func (e *subEnv) Deliver(d sm.Decision) {
	if e.coord {
		e.mgr.onCoordDecision(e.inst, d)
	} else {
		e.mgr.onDecision(e.inst, d)
	}
}

func (e *subEnv) Suspect(_ types.InstanceID, round types.Round) {
	if !e.coord {
		e.mgr.suspectInstance(e.inst, round)
	}
}

// RequestStateSync forwards a nested consensus's in-the-dark report (a
// certified checkpoint it cannot bridge) to the hosting runtime, through
// the manager's flight-recorded kick.
func (e *subEnv) RequestStateSync() { e.mgr.requestStateSync() }
