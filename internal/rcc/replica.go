package rcc

import (
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pbft"
	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes an RCC replica.
type Config struct {
	// BatchSize groups client transactions per proposal.
	BatchSize int
	// Window is the out-of-order proposal window per instance
	// (1 disables out-of-order processing).
	Window int
	// ProgressTimeout is the per-instance failure-detection timeout.
	ProgressTimeout time.Duration
	// RecoveryTimeout bounds the wait for the coordinating leader's
	// stop proposal before forcing a coordinator view change.
	RecoveryTimeout time.Duration
	// UnpredictableOrdering enables the §IV permutation ordering;
	// when false, round transactions execute in instance order.
	UnpredictableOrdering bool
	// Metrics receives unification counters, the unify-stage latency
	// histogram, and lifecycle trace stamps, and is forwarded to each
	// BCA instance. Nil disables instrumentation.
	Metrics *obs.NodeMetrics

	// m is the number of concurrent instances (1 ≤ m ≤ n); 0 means n.
	m int
	// sigma is the lag threshold σ: an instance σ rounds behind any
	// other is suspected (throttling detection, §IV), and σ also paces
	// the SwitchInstance schedule (§III-E). 0 means 16.
	sigma types.Round
	// disableNoOpFill turns off no-op filling (§III-E).
	disableNoOpFill bool
	// Only same-package tests set m, sigma and disableNoOpFill.
}

func (c *Config) defaults(n int) {
	if c.m <= 0 || c.m > n {
		c.m = n
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.ProgressTimeout <= 0 {
		c.ProgressTimeout = 500 * time.Millisecond
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 4 * c.ProgressTimeout
	}
	if c.sigma <= 0 {
		c.sigma = 16
	}
}

// instState tracks one concurrent instance at this replica.
type instState struct {
	id      types.InstanceID
	primary types.ReplicaID
	inst    *pbft.Instance // the BCA instance: PBFT with a fixed primary
	coord   *pbft.Instance // its coordinating consensus, with view changes

	decided map[types.Round]sm.Decision
	// decidedAt stamps when each decided round arrived (env.Now), feeding
	// the unify-stage latency histogram; nil when metrics are off.
	decidedAt map[types.Round]time.Duration
	// voidBelow is the void watermark: every round below it that is not in
	// decided was agreed (via stop(i;E)) to hold no proposal. A watermark
	// rather than a per-round set keeps restart penalties O(1) in space.
	voidBelow types.Round
	lastDec   types.Round // highest decided round

	// Failure handling (Fig. 4).
	suspected    bool
	suspectRound types.Round
	confirmed    bool
	failures     map[types.ReplicaID]*types.Failure
	stopProposed bool
	stops        int         // accepted stop(i;E) count — the penalty exponent
	startedAt    types.Round // round at which the instance last (re)started
	rebroadcast  time.Duration
	ckpForced    types.Round // last round answered with a catch-up checkpoint
	stallRound   types.Round // round for which a stall timer is armed (0 none)
}

// switchSched tracks an in-progress client reassignment (§III-E).
type switchSched struct {
	from, to    types.InstanceID
	activeAfter types.Round // to-instance accepts after this RCC round
	queued      []*types.ClientRequest
}

// Replica is the RCC-P machine of one replica: it hosts m concurrent PBFT
// instances with fixed primaries plus their coordinating consensus
// instances, collects per-round decisions, orders them deterministically,
// and emits them for execution through its environment's Deliver.
type Replica struct {
	cfg Config
	env sm.Env

	states []*instState

	execRound  types.Round // next RCC round to order and deliver (1-based)
	maxDecided types.Round // highest round decided by any instance

	assign   map[types.ClientID]types.InstanceID
	switches map[types.ClientID]*switchSched

	// delivered is the composite per-client dedup frontier: the highest
	// sequence number per client that wave unification has EXECUTED (not
	// merely decided inside an instance). Unlike the inner instances'
	// lastSeq maps — which advance at inner delivery, ahead of the wave
	// frontier and at quorum-dependent speeds — this map is a pure function
	// of the delivery prefix, so it is identical across replicas at the
	// same block height and safe to ship in boundary-attested sync points.
	delivered map[types.ClientID]uint64

	coordSeq uint64

	// stats
	roundsExecuted uint64
	noopsProposed  uint64
}

var _ sm.Machine = (*Replica)(nil)

// New creates an RCC replica machine. The quorum parameters come from the
// environment at Start.
func New(cfg Config) *Replica {
	return &Replica{
		cfg:       cfg,
		assign:    make(map[types.ClientID]types.InstanceID),
		switches:  make(map[types.ClientID]*switchSched),
		delivered: make(map[types.ClientID]uint64),
	}
}

// Start implements sm.Machine: instantiate the m BCA instances and their
// coordinating consensus instances.
func (r *Replica) Start(env sm.Env) {
	r.env = env
	n := env.Params().N
	r.cfg.defaults(n)
	r.execRound = 1
	r.states = make([]*instState, r.cfg.m)
	for i := 0; i < r.cfg.m; i++ {
		id := types.InstanceID(i)
		st := &instState{
			id:       id,
			primary:  types.ReplicaID(i % n),
			decided:  make(map[types.Round]sm.Decision),
			failures: make(map[types.ReplicaID]*types.Failure),
		}
		if r.cfg.Metrics != nil {
			st.decidedAt = make(map[types.Round]time.Duration)
		}
		st.inst = pbft.New(pbft.Config{
			Instance:        id,
			Primary:         st.primary,
			FixedPrimary:    true,
			Window:          r.cfg.Window,
			BatchSize:       r.cfg.BatchSize,
			ProgressTimeout: r.cfg.ProgressTimeout,
			Metrics:         r.cfg.Metrics,
		})
		// The coordinating consensus P for instance i is a standalone
		// PBFT instance (view changes enabled) whose initial leader is
		// the replica after the instance's primary, so a faulty
		// primary does not lead its own recovery.
		st.coord = pbft.New(pbft.Config{
			Instance:        types.CoordInstance(id),
			Primary:         types.ReplicaID((i + 1) % n),
			ProgressTimeout: r.cfg.ProgressTimeout,
			BatchSize:       1,
			Window:          4,
		})
		r.states[i] = st
		st.coord.SetViewInstalledHook(func(types.View) { r.onCoordViewInstalled(st) })
		st.inst.Start(&subEnv{Env: env, mgr: r, inst: id})
		st.coord.Start(&subEnv{Env: env, mgr: r, inst: id, coord: true})
	}
}

// onCoordViewInstalled runs after the coordinating consensus of st replaced
// its leader. With a confirmed failure pending, the fresh leader must
// propose the stop operation immediately, and the other replicas grant it a
// fresh timeout before suspecting it too (Fig. 4's "waits on the leader Li
// to propose a valid stop-operation or for the timer to run out") — without
// this, every replica's recovery timer fires in lockstep and the forced
// view changes kill each new leader's proposal before it can commit.
func (r *Replica) onCoordViewInstalled(st *instState) {
	if !st.confirmed {
		return
	}
	r.env.SetTimer(sm.TimerID{Instance: st.id, Kind: sm.TimerRecovery}, r.cfg.RecoveryTimeout)
	if st.coord.IsPrimary() {
		st.stopProposed = false
		r.maybeProposeStop(st)
	}
}

// M returns the number of concurrent instances.
func (r *Replica) M() int { return len(r.states) }

// OwnInstance returns the instance this replica leads, if any.
func (r *Replica) OwnInstance() (types.InstanceID, bool) {
	for _, st := range r.states {
		if st.primary == r.env.ID() {
			return st.id, true
		}
	}
	return 0, false
}

// ExecRound returns the next RCC round awaiting ordering/execution.
func (r *Replica) ExecRound() types.Round { return r.execRound }

// RoundsExecuted returns the number of completed RCC rounds.
func (r *Replica) RoundsExecuted() uint64 { return r.roundsExecuted }

// NoOpsProposed returns the number of no-op fill proposals made locally.
func (r *Replica) NoOpsProposed() uint64 { return r.noopsProposed }

// Status is an introspection snapshot of one instance's recovery state,
// used by tests, the benchmark harness, and operators.
type Status struct {
	Instance    types.InstanceID
	Primary     types.ReplicaID
	Halted      bool
	Suspected   bool
	Confirmed   bool
	Stops       int
	VoidBelow   types.Round
	LastDecided types.Round
	StartedAt   types.Round
	Failures    int        // distinct FAILURE claims held
	CoordView   types.View // view of the coordinating consensus
	DecidedExec bool       // whether this instance decided the execution round
}

// Status returns the snapshot for instance i.
func (r *Replica) Status(i types.InstanceID) Status {
	st := r.states[i]
	_, dec := st.decided[r.execRound]
	return Status{
		Instance:    st.id,
		Primary:     st.primary,
		Halted:      st.inst.Halted(),
		Suspected:   st.suspected,
		Confirmed:   st.confirmed,
		Stops:       st.stops,
		VoidBelow:   st.voidBelow,
		LastDecided: st.lastDec,
		StartedAt:   st.startedAt,
		Failures:    len(st.failures),
		CoordView:   st.coord.View(),
		DecidedExec: dec,
	}
}

// Assignment returns the instance currently serving client c (§III-E:
// every client is assigned to a single instance).
func (r *Replica) Assignment(c types.ClientID) types.InstanceID {
	if inst, ok := r.assign[c]; ok {
		return inst
	}
	return types.InstanceID(uint32(c) % uint32(len(r.states)))
}

// OnMessage implements sm.Machine: route by instance and type.
func (r *Replica) OnMessage(from sm.Source, m types.Message) {
	switch msg := m.(type) {
	case *types.ClientRequest:
		r.routeClientRequest(from, msg)
		return
	case *types.Failure:
		r.onFailure(from, msg)
		return
	case *types.SwitchInstance:
		r.onSwitchRequest(from, msg)
		return
	}
	id := m.Instance()
	if types.IsCoord(id) {
		b := types.BCAOf(id)
		if int(b) < len(r.states) {
			r.states[b].coord.OnMessage(from, m)
		}
		return
	}
	if int(id) < len(r.states) {
		r.states[id].inst.OnMessage(from, m)
	}
}

// OnTimer implements sm.Machine.
func (r *Replica) OnTimer(id sm.TimerID) {
	switch id.Kind {
	case sm.TimerRebroadcast:
		r.onRebroadcastTimer(id.Instance)
		return
	case sm.TimerRecovery:
		r.onRecoveryTimer(id.Instance)
		return
	case sm.TimerLag:
		r.onStallTimer(id)
		return
	}
	if types.IsCoord(id.Instance) {
		b := types.BCAOf(id.Instance)
		if int(b) < len(r.states) {
			r.states[b].coord.OnTimer(id)
		}
		return
	}
	if int(id.Instance) < len(r.states) {
		r.states[id.Instance].inst.OnTimer(id)
	}
}

// routeClientRequest forwards a client request — one client's transactions
// — to the instance serving the client as one request, honoring any
// in-progress reassignment schedule.
func (r *Replica) routeClientRequest(from sm.Source, m *types.ClientRequest) {
	c := m.Txns[0].Client
	if sched, ok := r.switches[c]; ok {
		if r.maxDecided < sched.activeAfter {
			sched.queued = append(sched.queued, m)
			return
		}
		r.completeSwitch(c, sched)
	}
	inst := r.Assignment(c)
	if met := r.cfg.Metrics; met.Tracing() {
		for i := range m.Txns {
			met.Trace(uint16(r.env.ID()), flight.SubRCC, flight.KAssign, uint32(inst), uint64(c), m.Txns[i].Seq)
		}
	}
	r.states[inst].inst.OnMessage(from, types.NewClientRequest(inst, m.Txns...))
}

// completeSwitch flushes a finished reassignment.
func (r *Replica) completeSwitch(c types.ClientID, sched *switchSched) {
	r.assign[c] = sched.to
	delete(r.switches, c)
	for _, q := range sched.queued {
		r.states[sched.to].inst.OnMessage(sm.FromClient(c), types.NewClientRequest(sched.to, q.Txns...))
	}
}

// onSwitchRequest handles a client's SWITCH-INSTANCE broadcast: the current
// leader of the coordinating consensus of the client's instance proposes
// the reassignment (agreement makes the schedule consistent everywhere).
// Only the client a request names may move itself.
func (r *Replica) onSwitchRequest(from sm.Source, m *types.SwitchInstance) {
	if !from.IsClient || from.Client != m.Client || int(m.To) >= len(r.states) {
		return
	}
	cur := r.Assignment(m.Client)
	if cur == m.To {
		return
	}
	if _, pending := r.switches[m.Client]; pending {
		return
	}
	coord := r.states[cur].coord
	if !coord.IsPrimary() {
		return
	}
	coord.Propose(r.coordOp(m))
}

// emit records a flight event attributed to this replica.
func (r *Replica) emit(kind flight.Kind, inst types.InstanceID, view types.View, seq, detail uint64) {
	r.cfg.Metrics.Emit(uint16(r.env.ID()), flight.SubRCC, kind, uint32(inst), uint64(view), seq, detail)
}

// onDecision receives one BCA instance decision (via subEnv.Deliver).
func (r *Replica) onDecision(inst types.InstanceID, d sm.Decision) {
	st := r.states[inst]
	if _, dup := st.decided[d.Round]; dup {
		return
	}
	st.decided[d.Round] = d
	r.emit(flight.KInstanceDecide, inst, d.View, uint64(d.Round), 0)
	if st.decidedAt != nil {
		st.decidedAt[d.Round] = r.env.Now()
	}
	if d.Round > st.lastDec {
		st.lastDec = d.Round
	}
	if d.Round > r.maxDecided {
		r.maxDecided = d.Round
	}
	// A halted-but-unconfirmed instance whose missing rounds arrived via
	// checkpoint catch-up resumes participation: the suspected failure
	// resolved itself (in-the-dark recovery, §III-D).
	if st.suspected && !st.confirmed && st.inst.Halted() && d.Round >= st.suspectRound {
		st.inst.ResumeAt(st.lastDec + 1)
		r.resetDetection(st, st.lastDec+1)
	}
	r.checkLag()
	r.maybeNoOpFill()
	r.tryExecute()
}

// tryExecute orders and delivers completed RCC rounds (§III-B steps 2–3):
// once every instance has either decided round ρ or has ρ void (stopped
// with a restart penalty covering ρ), the round's transactions execute in
// the deterministic permutation order of §IV.
func (r *Replica) tryExecute() {
	for {
		type slot struct {
			inst types.InstanceID
			dec  sm.Decision
		}
		slots := make([]slot, 0, len(r.states))
		var blockers []*instState
		for _, st := range r.states {
			if d, ok := st.decided[r.execRound]; ok {
				slots = append(slots, slot{st.id, d})
				continue
			}
			if r.execRound < st.voidBelow {
				continue
			}
			blockers = append(blockers, st)
		}
		if len(blockers) > 0 {
			// The round cannot execute yet. If other instances have
			// already decided it, each blocking instance is due and must
			// make progress in time — this is what re-detects a resumed
			// instance whose primary is still crashed once its restart
			// penalty has been consumed.
			if len(slots) > 0 {
				for _, st := range blockers {
					r.armStall(st)
				}
			}
			return
		}
		digests := make([]types.Digest, len(slots))
		for i := range slots {
			digests[i] = slots[i].dec.Digest
		}
		ord := ExecutionOrder(digests, r.cfg.UnpredictableOrdering)
		for _, p := range ord {
			r.noteDelivered(slots[p].dec.Batch)
			r.env.Deliver(slots[p].dec)
		}
		met := r.cfg.Metrics
		for _, st := range r.states {
			if st.stallRound == r.execRound {
				// The round executed: its stall detector is moot.
				r.env.CancelTimer(sm.TimerID{Instance: st.id, Kind: sm.TimerLag, Round: r.execRound})
				st.stallRound = 0
			}
		}
		for _, s := range slots {
			st := r.states[s.inst]
			delete(st.decided, r.execRound)
			if st.decidedAt != nil {
				if at, ok := st.decidedAt[r.execRound]; ok {
					met.ObserveStage(obs.StageUnify, r.env.Now()-at)
					delete(st.decidedAt, r.execRound)
				}
			}
		}
		if met != nil {
			met.Unified.Inc()
		}
		r.emit(flight.KWaveUnify, 0, 0, uint64(r.execRound), uint64(len(slots)))
		r.roundsExecuted++
		r.execRound++
		// A cadence snapshot that came due mid-wave persists here, at the
		// wave boundary: the ledger head and the boundary sync point
		// describe the same deterministic instant on every replica, which is
		// what lets f+1 of them attest the checkpoint byte-identically.
		r.env.Checkpoint(false)
	}
}

// noteDelivered advances the composite dedup frontier for every client
// transaction the wave just executed, with one map write per same-client
// run of the batch.
func (r *Replica) noteDelivered(b *types.Batch) {
	if b == nil {
		return
	}
	var c types.ClientID
	var top uint64 // highest seq of c's current run; 0 before the first
	for i := range b.Txns {
		tx := &b.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		if top > 0 && tx.Client != c {
			r.delivered[c] = max(r.delivered[c], top)
			top = 0
		}
		c, top = tx.Client, max(top, tx.Seq)
	}
	if top > 0 {
		r.delivered[c] = max(r.delivered[c], top)
	}
}

// armStall arms the execution-stall detector for a blocking instance: if it
// fails to decide the current execution round within the progress timeout,
// it is suspected (once per round, so sustained progress elsewhere cannot
// keep postponing the deadline).
func (r *Replica) armStall(st *instState) {
	if st.suspected || st.stallRound == r.execRound {
		return
	}
	st.stallRound = r.execRound
	id := sm.TimerID{Instance: st.id, Kind: sm.TimerLag, Round: r.execRound}
	r.env.SetTimer(id, r.cfg.ProgressTimeout)
}

// onStallTimer fires when a due instance failed to decide the execution
// round in time.
func (r *Replica) onStallTimer(id sm.TimerID) {
	if int(id.Instance) >= len(r.states) || r.execRound != id.Round {
		return
	}
	st := r.states[id.Instance]
	st.stallRound = 0
	if st.suspected {
		return
	}
	if _, ok := st.decided[id.Round]; ok || id.Round < st.voidBelow {
		return
	}
	r.suspectInstance(st.id, id.Round)
}

// checkLag suspects instances lagging σ rounds behind the front runner
// (throttling attack mitigation, §IV).
func (r *Replica) checkLag() {
	for _, st := range r.states {
		if st.suspected || st.inst.Halted() {
			continue
		}
		behind := st.lastDec
		if v := r.voidHorizon(st); v > behind {
			behind = v
		}
		if r.maxDecided > behind+r.cfg.sigma {
			r.suspectInstance(st.id, behind+1)
		}
	}
}

// voidHorizon returns the highest round void for st (restart penalties
// count as progress for lag purposes).
func (r *Replica) voidHorizon(st *instState) types.Round {
	if st.voidBelow == 0 {
		return 0
	}
	return st.voidBelow - 1
}

// maybeNoOpFill proposes a no-op on the local replica's own instance when
// it has nothing to propose but other instances are progressing (§III-E),
// so low client demand does not stall round completion.
//
// With requests queued but short of a batch, it proposes them as a partial
// batch instead: another instance already decided the round this one
// proposes next, so that round waits on this instance whether or not the
// batch fills. Otherwise an instance one round behind stays behind while
// the load is even (after a recovery drain, say), and every request of the
// instances ahead waits one more batch fill.
//
// This cascades: a partial batch one primary proposes early gets decided,
// which makes every other instance propose a partial (or a no-op) for that
// round. One primary's batching deadline thus sets the round rate of all
// m instances, which is why pbft cuts early only in its light regime, when
// its pipeline occupancy is below 1/4 and the extra rounds cost idle
// capacity only.
func (r *Replica) maybeNoOpFill() {
	if r.cfg.disableNoOpFill {
		return
	}
	own, ok := r.OwnInstance()
	if !ok {
		return
	}
	st := r.states[own]
	if st.inst.Halted() {
		return
	}
	for st.inst.NextProposeRound() <= r.maxDecided {
		if st.inst.Pending() > 0 {
			if !st.inst.ProposePending() {
				return
			}
			continue
		}
		if !st.inst.Propose(types.NoOpBatch()) {
			return
		}
		r.noopsProposed++
		if met := r.cfg.Metrics; met != nil {
			met.NoOps.Inc()
		}
	}
}
