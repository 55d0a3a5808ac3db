package rcc

import (
	"sort"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

// This file implements the wait-free recovery protocol of Fig. 4 and the
// dynamic per-need checkpoints of §III-D.
//
// Recovery request role: a replica that detects failure of primary P_i in
// round ρ halts I_i and broadcasts FAILURE(i, ρ, P) with its instance state
// P (Assumption A3), rebroadcasting with exponentially growing delay until
// it learns how to proceed. f+1 FAILURE messages from distinct replicas are
// themselves a failure detection; nf messages are a *confirmed* failure.
//
// Recovery leader role: the leader of the coordinating consensus P for I_i
// that holds nf well-formed FAILURE messages proposes stop(i; E).
//
// State recovery role: accepting stop(i; E) recovers the instance state
// from E, determines the last accepted round ρ, and resumes the instance at
// ρ + 2^k where k counts accepted stop operations (the exponentially
// growing restart penalty of Fig. 4 line 12).

const initialRebroadcast = 250 * time.Millisecond

// suspectInstance is the local failure-detection entry point (Fig. 4
// line 1): BCA progress timeouts, equivocation, lag detection, and f+1
// FAILURE claims all funnel here.
func (r *Replica) suspectInstance(inst types.InstanceID, round types.Round) {
	st := r.states[inst]
	if st.suspected {
		return
	}
	// A dormant instance — one still serving its restart penalty — is not
	// expected to propose until the other instances reach its resume round,
	// so suspicion of it is premature. The lag detector (checkLag) raises
	// the suspicion again once the instance is actually due. Without this
	// gate a permanently crashed primary would be re-suspected immediately
	// after every recovery, doubling the penalty in a tight loop.
	if st.voidBelow > r.maxDecided+1 {
		return
	}
	st.suspected = true
	st.suspectRound = round
	st.inst.Halt()
	r.broadcastFailure(st, round)
	st.rebroadcast = initialRebroadcast
	r.env.SetTimer(sm.TimerID{Instance: inst, Kind: sm.TimerRebroadcast}, st.rebroadcast)
}

func (r *Replica) broadcastFailure(st *instState, round types.Round) {
	f := &types.Failure{
		Replica: r.env.ID(),
		Round:   round,
		State:   st.inst.StateForRecovery(),
	}
	f.Inst = st.id
	r.env.Broadcast(f)
}

// onRebroadcastTimer re-sends FAILURE with exponential backoff until the
// instance recovers (handles unreliable communication).
func (r *Replica) onRebroadcastTimer(inst types.InstanceID) {
	st := r.states[inst]
	if !st.suspected {
		return
	}
	r.broadcastFailure(st, st.suspectRound)
	st.rebroadcast *= 2
	r.env.SetTimer(sm.TimerID{Instance: inst, Kind: sm.TimerRebroadcast}, st.rebroadcast)
}

// onFailure processes FAILURE(i, ρ, P) (Fig. 4 lines 5–8).
func (r *Replica) onFailure(from sm.Source, m *types.Failure) {
	// A FAILURE counts the sender its link authenticated: one replica
	// must not claim failures in others' names.
	if from.IsClient || from.Replica != m.Replica || int(m.Instance()) >= len(r.states) {
		return
	}
	st := r.states[m.Instance()]
	// Condition 3: the claimed round must come after the round in which
	// I_i started last (stale claims from before a recovery are void).
	if m.Round < st.startedAt {
		return
	}
	st.failures[m.Replica] = m

	p := r.env.Params()
	// An in-dark replica beyond repair: f+1 distinct replicas claim
	// progress far past everything this replica has decided or voided —
	// at least one of them is honest, so the cluster really is there, and
	// a gap wider than σ means the checkpoint bodies that heal ordinary
	// in-the-dark replicas (§III-D) no longer reach back to our frontier.
	// Only a ledger-level state transfer can close it.
	if len(st.failures) >= p.FaultDetection() &&
		m.Round > st.lastDec+2*r.cfg.sigma && m.Round > r.voidHorizon(st)+2*r.cfg.sigma {
		r.requestStateSync()
	}
	// A replica that already finished the claimed round and does not
	// share the suspicion answers the claim with a checkpoint: if the
	// claimant was merely kept in the dark (≤ f affected replicas, so no
	// confirmed failure will ever form), the f+1 honest responses let it
	// adopt the missed proposals (§III-D).
	if !st.suspected && st.lastDec >= m.Round && m.Round > st.ckpForced {
		st.ckpForced = st.lastDec
		st.inst.ForceCheckpoint()
	}
	// f+1 distinct claims: at least one is from a non-faulty replica,
	// so detect the failure ourselves (Fig. 4 line 5).
	if len(st.failures) >= p.FaultDetection() && !st.suspected {
		r.suspectInstance(st.id, m.Round)
	}
	// nf−f claims may indicate an in-the-dark attack: participate in a
	// dynamic checkpoint if this replica finished the claimed rounds
	// (§III-D).
	if len(st.failures) == p.InDarkRecovery() {
		r.maybeDynamicCheckpoint(m.Round)
	}
	// nf claims: confirmed failure (Fig. 4 line 7).
	if len(st.failures) >= p.NF() && !st.confirmed {
		st.confirmed = true
		r.env.SetTimer(sm.TimerID{Instance: st.id, Kind: sm.TimerRecovery}, r.cfg.RecoveryTimeout)
		r.maybeProposeStop(st)
	}
}

// maybeProposeStop lets the coordinating leader propose stop(i; E) once it
// holds nf well-formed FAILURE messages.
func (r *Replica) maybeProposeStop(st *instState) {
	if st.stopProposed || !st.confirmed || !st.coord.IsPrimary() {
		return
	}
	p := r.env.Params()
	if len(st.failures) < p.NF() {
		return
	}
	// Deterministically select nf pieces of evidence (sorted by sender).
	senders := make([]types.ReplicaID, 0, len(st.failures))
	for s := range st.failures {
		senders = append(senders, s)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	evidence := make([]*types.Failure, 0, p.NF())
	for _, s := range senders[:p.NF()] {
		evidence = append(evidence, st.failures[s])
	}
	stop := &types.Stop{Header: types.Header{Inst: types.CoordInstance(st.id)}, Target: st.id, Evidence: evidence}
	if st.coord.Propose(r.coordOp(stop)) {
		st.stopProposed = true
		r.env.Logf("rcc: proposed stop(%d) with %d evidence", st.id, len(evidence))
	} else {
		r.env.Logf("rcc: stop(%d) proposal rejected by coordinator", st.id)
	}
}

// onRecoveryTimer fires when the coordinating leader failed to get a stop
// operation accepted in time: the replica joins a coordinator view change
// (Fig. 4's "follows the steps of a view-change in P to replace L_i").
func (r *Replica) onRecoveryTimer(inst types.InstanceID) {
	st := r.states[inst]
	if !st.confirmed {
		return
	}
	if st.coord.IsPrimary() {
		// A previous leader's stop proposal may have been lost in a
		// coordinator view change; the proposal guard is per-replica, so
		// clear it and propose again. Duplicate accepted stops are
		// harmless (each is one more "accepted stop(i;E′) operation" in
		// the penalty count of Fig. 4 line 12).
		st.stopProposed = false
		r.maybeProposeStop(st)
	} else {
		st.coord.ForceViewChange()
	}
	r.env.SetTimer(sm.TimerID{Instance: inst, Kind: sm.TimerRecovery}, r.cfg.RecoveryTimeout)
}

// coordOp wraps a coordinator operation in the batch its coordinating
// consensus replicates. The seq is unique per proposing replica.
func (r *Replica) coordOp(m types.Message) *types.Batch {
	r.coordSeq++
	op, _ := types.AppendMessage(nil, m) // Stop and SwitchInstance have codecs
	tx := types.Transaction{Seq: r.coordSeq<<8 | uint64(r.env.ID())&0xff + 1, Op: op}
	return &types.Batch{Txns: []types.Transaction{tx}}
}

// onCoordDecision processes decisions of the coordinating consensus of
// instance inst: stop operations and client reassignments. An op is a
// types message from the coordinating leader; anything else, and a stop
// validStop refuses, changes nothing.
func (r *Replica) onCoordDecision(inst types.InstanceID, d sm.Decision) {
	if d.Batch == nil {
		return
	}
	for i := range d.Batch.Txns {
		m, err := types.DecodeMessage(d.Batch.Txns[i].Op)
		if err != nil {
			continue
		}
		switch op := m.(type) {
		case *types.Stop:
			if r.validStop(inst, op) {
				r.handleStop(inst, op.Evidence)
			}
		case *types.SwitchInstance:
			r.handleSwitch(inst, op.Client, op.To)
		}
	}
}

// validStop reports whether s may stop instance inst: it targets inst, and
// its evidence is nf FAILUREs about inst from distinct replicas.
func (r *Replica) validStop(inst types.InstanceID, s *types.Stop) bool {
	p := r.env.Params()
	if s.Target != inst || len(s.Evidence) < p.NF() {
		return false
	}
	seen := make(map[types.ReplicaID]bool, len(s.Evidence))
	for _, f := range s.Evidence {
		if f.Inst != inst || int(f.Replica) >= p.N || seen[f.Replica] {
			return false
		}
		seen[f.Replica] = true
	}
	return true
}

// handleStop applies an accepted stop(i; E): recover the instance state
// from E, then schedule the restart (Fig. 4 lines 9–12).
func (r *Replica) handleStop(inst types.InstanceID, evidence []*types.Failure) {
	st := r.states[inst]

	// Recover the per-round state: for every round, adopt the reported
	// proposal with the highest view whose batch matches its digest
	// (Theorem III.3: anything accepted by a non-faulty replica is
	// recoverable from E).
	best := make(map[types.Round]types.AcceptedProposal)
	var last types.Round
	for _, f := range evidence {
		for j := range f.State {
			ap := f.State[j]
			if ap.Batch == nil || ap.Batch.Digest() != ap.Digest {
				continue
			}
			cur, ok := best[ap.Round]
			if !ok || ap.View > cur.View {
				best[ap.Round] = ap
			}
			if ap.Round > last {
				last = ap.Round
			}
		}
	}
	adopt := make([]types.Round, 0, len(best))
	for rnd := range best {
		adopt = append(adopt, rnd)
	}
	sort.Slice(adopt, func(i, j int) bool { return adopt[i] < adopt[j] })
	for _, rnd := range adopt {
		ap := best[rnd]
		st.inst.AdoptDecision(sm.Decision{
			Instance: inst, Round: rnd, View: ap.View,
			Digest: ap.Digest, Batch: ap.Batch,
		})
	}

	// Exponentially growing restart penalty (Fig. 4 line 12). The exponent
	// is capped so the shift stays defined; by then the resume round is so
	// far in the future the instance is effectively retired.
	st.stops++
	exp := st.stops
	if exp > 40 {
		exp = 40
	}
	resume := last + types.Round(1)<<uint(exp)
	// Every round below resume without an adopted proposal is void — a
	// watermark, not a per-round walk, so the penalty width costs O(1).
	if resume > st.voidBelow {
		st.voidBelow = resume
	}
	st.inst.SkipTo(resume)
	st.inst.ResumeAt(resume)
	st.startedAt = resume
	r.emit(flight.KVoid, inst, 0, uint64(resume), uint64(st.stops))
	r.env.Logf("rcc: applied stop(%d): last=%d resume=%d stops=%d", inst, last, resume, st.stops)
	r.resetDetection(st, resume)
	r.tryExecute()
	r.maybeNoOpFill()
}

// resetDetection clears the failure-detection epoch after a recovery.
func (r *Replica) resetDetection(st *instState, startedAt types.Round) {
	st.suspected = false
	st.confirmed = false
	st.stopProposed = false
	st.stallRound = 0
	st.failures = make(map[types.ReplicaID]*types.Failure)
	st.startedAt = startedAt
	r.env.CancelTimer(sm.TimerID{Instance: st.id, Kind: sm.TimerRebroadcast})
	r.env.CancelTimer(sm.TimerID{Instance: st.id, Kind: sm.TimerRecovery})
}

// requestStateSync reports that this replica is in the dark beyond what
// checkpoint catch-up can bridge: the hosting runtime (when it implements
// sm.StateSyncRequester) starts a checkpoint-based state transfer from
// peers. Requests coalesce in the runtime; duplicates are cheap.
func (r *Replica) requestStateSync() {
	if req, ok := r.env.(sm.StateSyncRequester); ok {
		r.emit(flight.KRecoveryKick, 0, 0, uint64(r.execRound), 0)
		req.RequestStateSync()
	}
}

// maybeDynamicCheckpoint triggers per-need checkpoints (§III-D): when
// nf−f replicas claim a failure in round ρ and this replica has finished ρ
// in all its instances, it participates in a checkpoint so in-the-dark
// replicas can recover the round without the malicious primary's help.
func (r *Replica) maybeDynamicCheckpoint(round types.Round) {
	for _, st := range r.states {
		if st.lastDec < round && round >= st.voidBelow && !st.inst.Halted() {
			return // not finished everywhere yet
		}
	}
	for _, st := range r.states {
		st.inst.ForceCheckpoint()
	}
	// A checkpoint everyone can agree on is also the cheapest durable
	// recovery point: runtimes with a snapshot store persist the
	// execution state here, so a crash-restart resumes from this round
	// instead of replaying the whole journal.
	if sink, ok := r.env.(sm.CheckpointSink); ok {
		sink.PersistCheckpoint()
	}
}

// handleSwitch installs the agreed reassignment schedule (§III-E): requests
// the client sends from now on queue here, and after 2σ more rounds they
// route to the new instance. The schedule starts at the local maxDecided,
// which replicas do not agree on. Nothing leaves the old instance: its pbft
// queue keeps the client's pending seqs and its primary still proposes
// them, so a seq the client retransmits after the move can run in both
// instances (TestSwitchUnderLoadExecutesOnce, skipped until ROADMAP 32).
func (r *Replica) handleSwitch(coordOf types.InstanceID, c types.ClientID, to types.InstanceID) {
	if int(to) >= len(r.states) {
		return
	}
	cur := r.Assignment(c)
	if cur != coordOf || cur == to {
		return
	}
	r.switches[c] = &switchSched{
		from:        cur,
		to:          to,
		activeAfter: r.maxDecided + 2*r.cfg.sigma,
	}
}
