package runtime

import (
	"time"

	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// replicaEnv implements sm.Env on top of the process.
type replicaEnv struct {
	*host
	r *Replica
	// snapDue defers a cadence-triggered checkpoint to the machine's next
	// delivery boundary (sm.BoundarySyncable machines only). The cadence
	// fires MID-wave — inside Deliver — where different replicas observe
	// different in-flight frontiers; the machine's Checkpoint call at the
	// wave boundary consumes the flag, at the one point where its frontier
	// is a pure function of the delivery prefix and a checkpoint can be
	// attested across replicas.
	snapDue bool
	// self holds the messages the machine addressed to itself during the
	// event being handled. The loop drains it before its next inbox read,
	// so self-delivery never waits on the bounded inbox only this loop
	// empties, and the machine still sees one message at a time.
	self []types.Message
}

var _ sm.Env = (*replicaEnv)(nil)

func (e *replicaEnv) ID() types.ReplicaID   { return e.r.cfg.ID }
func (e *replicaEnv) Params() quorum.Params { return e.r.cfg.Params }

func (e *replicaEnv) Send(to types.ReplicaID, m types.Message) {
	if to == e.r.cfg.ID {
		e.self = append(e.self, m)
		return
	}
	if e.r.trans != nil {
		_ = e.r.trans.Send(to, m) // unreachable peers are the timeout paths' job
	}
}

// drainSelf dispatches the queued self-addressed messages in send order,
// including those their own handling queues.
func (e *replicaEnv) drainSelf() {
	from := sm.FromReplica(e.r.cfg.ID)
	for i := 0; i < len(e.self); i++ {
		m := e.self[i]
		e.self[i] = nil
		e.r.dispatch(from, m)
	}
	e.self = e.self[:0]
}

func (e *replicaEnv) Broadcast(m types.Message) {
	for i := 0; i < e.r.cfg.Params.N; i++ {
		e.Send(types.ReplicaID(i), m)
	}
}

func (e *replicaEnv) SendClient(c types.ClientID, m types.Message) {
	if e.r.trans != nil {
		_ = e.r.trans.SendClient(c, m)
	}
}

// Deliver executes the decision's batch in order, appends its block to the
// replica's ledger, and answers the clients when that append completes.
// The durable store completes on its WAL committer goroutine once the
// block's record is durable (per-height ack deferral), so no client ever
// holds an acknowledgement the disk does not; the in-memory ledger
// completes inline.
func (e *replicaEnv) Deliver(d sm.Decision) {
	r := e.r
	if d.Batch == nil || d.Batch.IsNoOp() {
		// No-op fillers (§III-E) keep rounds complete but carry no client
		// work: nothing to execute, journal, or answer.
		return
	}
	met := r.cfg.Metrics
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	result := exec.Apply(r.cfg.App, d.Batch.Txns)
	r.executed.Add(uint64(len(d.Batch.Txns)))
	if met != nil {
		met.ObserveStage(obs.StageExecute, time.Since(start))
		if met.Tracing() {
			r.traceBatch(d, flight.KExecute)
		}
	}
	state := r.cfg.App.StateDigest()
	proof := ledger.Proof{
		Instance: d.Instance, Round: d.Round, View: d.View,
		Digest: d.Digest, Signers: d.Signers,
	}
	var appended time.Time
	if met != nil {
		appended = time.Now()
	}
	// With a durable store done runs on the WAL committer goroutine; d is
	// read-only there, and the transports are safe for concurrent use.
	// SendClient is enqueue-only (bounded per-client queue, drop on
	// overflow), so acking directly from the committer can never wait on a
	// client's socket — a dropped reply only un-acks a durable block and
	// the client collects its f+1 replies elsewhere or retries.
	done := func(_ uint64, err error) {
		if met != nil {
			met.ObserveStage(obs.StageJournal, time.Since(appended))
		}
		if err != nil {
			// The in-memory chain is now ahead of disk: the error sticks
			// (DurabilityErr), and clients collect their f+1 replies from
			// healthy replicas.
			r.setDurErr(err)
			return
		}
		if r.durable != nil && met.Tracing() {
			r.traceBatch(d, flight.KDurable)
		}
		r.ackClients(d, result)
		if met != nil {
			met.ObserveStage(obs.StageAck, time.Since(start))
		}
	}
	var blk *ledger.Block
	if r.durable != nil {
		blk = r.durable.AppendAsync(d.Batch, proof, state, done)
	} else {
		blk = r.log.Append(d.Batch, proof, state)
		done(0, nil)
	}
	if r.blockHook != nil {
		r.blockHook(blk)
	}
	if every := r.cfg.Journaling.SnapshotEvery; every > 0 && (blk.Height+1)%every == 0 {
		if r.boundary != nil {
			// Heights land mid-wave; a boundary-syncable machine announces
			// the end of the wave (Checkpoint(false)), where the checkpoint
			// lands at a deterministic frontier.
			e.snapDue = true
		} else {
			r.saveSnapshot()
		}
	}
}

// traceBatch stamps lifecycle point kind for every sampled transaction of
// a decided batch.
func (r *Replica) traceBatch(d sm.Decision, kind flight.Kind) {
	for i := range d.Batch.Txns {
		tx := &d.Batch.Txns[i]
		if !tx.IsNoOp() {
			r.cfg.Metrics.Trace(uint16(r.cfg.ID), flight.SubRuntime, kind, uint32(d.Instance), uint64(tx.Client), tx.Seq)
		}
	}
}

func (e *replicaEnv) Suspect(inst types.InstanceID, round types.Round) {
	// Standalone machines route suspicion internally; RCC replicas never
	// surface it to the runtime. Nothing to do.
}

// Checkpoint implements sm.Env. A forced checkpoint — RCC's dynamic
// per-need checkpoint (§III-D) — persists now, so it doubles as a durable
// recovery point. A delivery boundary consumes the cadence flag Deliver set
// mid-wave, so a boundary-syncable machine takes exactly one checkpoint per
// trigger, at its next boundary. Runs on the event loop (machines emit
// effects from their own loop), so touching the application is safe.
func (e *replicaEnv) Checkpoint(force bool) {
	if !force {
		if !e.snapDue {
			return
		}
		e.snapDue = false
	}
	e.r.saveSnapshot()
}

func (e *replicaEnv) Logf(format string, args ...any) { e.r.logf(format, args...) }

// RequestStateSync implements sm.Env: machines report gaps that
// in-protocol catch-up cannot bridge; the manager coalesces the kicks.
func (e *replicaEnv) RequestStateSync() {
	if e.r.sync != nil {
		e.r.sync.Kick()
	}
}
