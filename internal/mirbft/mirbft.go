// Package mirbft implements a Mir-BFT-style multi-leader consensus baseline
// (Stathakopoulou et al.), the comparator of the RCC paper's Fig. 10 and
// Example VI.1.
//
// Like RCC, Mir-BFT runs concurrent PBFT instances with distinct leaders.
// The defining difference is failure handling: Mir-BFT operates in global
// epochs. When any instance fails, the replicas perform an epoch change
// that temporarily halts ALL instances (dropping throughput to zero), after
// which a super-primary installs a new epoch whose leader set excludes the
// failed leader. Once the system looks reliable again, disabled leaders are
// re-enabled gradually, one per stability interval.
//
// This is exactly the behavioural contrast Fig. 10 measures against RCC's
// wait-free per-instance recovery: during Mir-BFT recovery every instance
// stalls, and after recovery the system runs with fewer instances for a
// while.
package mirbft

import (
	"sort"
	"time"

	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes a Mir-BFT replica. It runs one instance per replica.
type Config struct {
	// BatchSize groups client transactions per proposal.
	BatchSize int
	// Window is the out-of-order proposal window per instance.
	Window int
	// ProgressTimeout is the per-instance failure-detection timeout.
	ProgressTimeout time.Duration
	// StabilityInterval is how long the super-primary waits after an
	// epoch change before re-enabling one disabled leader.
	StabilityInterval time.Duration
}

func (c *Config) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.ProgressTimeout <= 0 {
		c.ProgressTimeout = 500 * time.Millisecond
	}
	if c.StabilityInterval <= 0 {
		c.StabilityInterval = 2 * time.Second
	}
}

// instState tracks one instance at this replica.
type instState struct {
	id      types.InstanceID
	primary types.ReplicaID
	inst    *pbft.Instance

	enabled   bool
	decided   map[types.Round]sm.Decision
	voidBelow types.Round
	lastDec   types.Round
	suspected bool
}

// Replica is one Mir-BFT replica hosting n concurrent instances under
// global epoch coordination.
type Replica struct {
	cfg Config
	env sm.Env

	states []*instState
	epoch  uint64
	// changing is set between the epoch-change trigger and NEW-EPOCH:
	// every instance is halted (the throughput dip of Fig. 10).
	changing bool
	// pendingEpoch/pendingFailed track the in-progress epoch change so a
	// silent super-primary can be skipped by escalating to the next epoch.
	pendingEpoch  uint64
	pendingFailed types.InstanceID
	// failed accumulates the leaders excluded from the current epoch.
	failed map[types.ReplicaID]bool

	votes map[uint64]map[types.ReplicaID]types.InstanceID

	execRound  types.Round
	maxDecided types.Round

	roundsExecuted uint64
	noopsProposed  uint64
	epochChanges   uint64
}

var _ sm.Machine = (*Replica)(nil)

// New creates a Mir-BFT replica machine.
func New(cfg Config) *Replica {
	return &Replica{
		failed: make(map[types.ReplicaID]bool),
		votes:  make(map[uint64]map[types.ReplicaID]types.InstanceID),
		cfg:    cfg,
	}
}

// Start implements sm.Machine.
func (r *Replica) Start(env sm.Env) {
	r.env = env
	n := env.Params().N
	r.cfg.defaults()
	r.execRound = 1
	r.states = make([]*instState, n)
	for i := 0; i < n; i++ {
		id := types.InstanceID(i)
		st := &instState{
			id:      id,
			primary: types.ReplicaID(i % n),
			enabled: true,
			decided: make(map[types.Round]sm.Decision),
		}
		st.inst = pbft.New(pbft.Config{
			Instance:        id,
			Primary:         st.primary,
			FixedPrimary:    true,
			Window:          r.cfg.Window,
			BatchSize:       r.cfg.BatchSize,
			ProgressTimeout: r.cfg.ProgressTimeout,
		})
		r.states[i] = st
		st.inst.Start(&instEnv{outer: env, mgr: r, inst: id})
	}
}

// M returns the number of instances.
func (r *Replica) M() int { return len(r.states) }

// Epoch returns the current epoch number.
func (r *Replica) Epoch() uint64 { return r.epoch }

// EpochChanges returns how many epoch changes this replica performed.
func (r *Replica) EpochChanges() uint64 { return r.epochChanges }

// RoundsExecuted returns the number of completed rounds.
func (r *Replica) RoundsExecuted() uint64 { return r.roundsExecuted }

// EnabledInstances returns the instances enabled in the current epoch.
func (r *Replica) EnabledInstances() []types.InstanceID {
	var out []types.InstanceID
	for _, st := range r.states {
		if st.enabled {
			out = append(out, st.id)
		}
	}
	return out
}

// superPrimary returns the coordinator of epoch e.
func (r *Replica) superPrimary(e uint64) types.ReplicaID {
	return types.ReplicaID(e % uint64(r.env.Params().N))
}

// Assignment returns the enabled instance serving client c. Requests of
// clients assigned to disabled leaders are re-bucketed (Mir-BFT reassigns
// request buckets every epoch).
func (r *Replica) Assignment(c types.ClientID) types.InstanceID {
	enabled := r.EnabledInstances()
	if len(enabled) == 0 {
		return 0
	}
	return enabled[int(uint32(c))%len(enabled)]
}

// OwnInstance returns the instance this replica leads, if any.
func (r *Replica) OwnInstance() (types.InstanceID, bool) {
	for _, st := range r.states {
		if st.primary == r.env.ID() {
			return st.id, true
		}
	}
	return 0, false
}

// OnMessage implements sm.Machine.
func (r *Replica) OnMessage(from sm.Source, m types.Message) {
	switch msg := m.(type) {
	case *types.ClientRequest:
		r.routeClientRequest(from, msg)
		return
	case *types.EpochChange:
		r.onEpochChange(msg)
		return
	case *types.NewEpoch:
		r.onNewEpoch(from.Replica, msg)
		return
	}
	id := m.Instance()
	if int(id) < len(r.states) {
		r.states[id].inst.OnMessage(from, m)
	}
}

// OnTimer implements sm.Machine.
func (r *Replica) OnTimer(id sm.TimerID) {
	if id.Kind == sm.TimerEpoch {
		if id.Round == 0 {
			r.onStabilityTimer()
		} else {
			r.onEpochEscalation(uint64(id.Round))
		}
		return
	}
	if int(id.Instance) < len(r.states) {
		r.states[id.Instance].inst.OnTimer(id)
	}
}

func (r *Replica) routeClientRequest(from sm.Source, m *types.ClientRequest) {
	if r.changing {
		return // all buckets stall during an epoch change
	}
	inst := r.Assignment(m.Txns[0].Client) // a request carries one client's transactions
	r.states[inst].inst.OnMessage(from, types.NewClientRequest(inst, m.Txns...))
}

// suspectInstance starts the global epoch change (the Mir-BFT contrast to
// RCC's per-instance recovery).
func (r *Replica) suspectInstance(inst types.InstanceID, _ types.Round) {
	st := r.states[inst]
	if st.suspected || !st.enabled {
		return
	}
	st.suspected = true
	r.env.Logf("mirbft: suspecting instance %d (epoch %d)", inst, r.epoch)
	ec := &types.EpochChange{Replica: r.env.ID(), Epoch: r.epoch + 1, Failed: inst}
	ec.Inst = inst
	r.env.Broadcast(ec)
}

func (r *Replica) onEpochChange(m *types.EpochChange) {
	if m.Epoch <= r.epoch {
		return
	}
	votes, ok := r.votes[m.Epoch]
	if !ok {
		votes = make(map[types.ReplicaID]types.InstanceID)
		r.votes[m.Epoch] = votes
	}
	votes[m.Replica] = m.Failed
	p := r.env.Params()
	// f+1 distinct complaints: join the epoch change ourselves.
	if len(votes) >= p.FaultDetection() && !r.changing {
		if _, voted := votes[r.env.ID()]; !voted {
			ec := &types.EpochChange{Replica: r.env.ID(), Epoch: m.Epoch, Failed: m.Failed}
			ec.Inst = m.Failed
			r.env.Broadcast(ec)
		}
		// Halt everything: the fully-coordinated recovery of Mir-BFT.
		r.changing = true
		r.epochChanges++
		r.pendingEpoch = m.Epoch
		r.pendingFailed = m.Failed
		for _, st := range r.states {
			st.inst.Halt()
		}
		// Guard against a silent super-primary (it may itself be the
		// crashed replica): escalate to the next epoch on timeout.
		r.env.SetTimer(sm.TimerID{Kind: sm.TimerEpoch, Round: types.Round(m.Epoch)}, r.cfg.ProgressTimeout)
	}
	// nf votes: the new super-primary installs the epoch.
	if len(votes) >= p.NF() && r.superPrimary(m.Epoch) == r.env.ID() {
		failed := make(map[types.InstanceID]int)
		for _, f := range votes {
			failed[f]++
		}
		leaders := make([]types.ReplicaID, 0, len(r.states))
		for _, st := range r.states {
			excluded := false
			for f, c := range failed {
				if f == st.id && c >= p.FaultDetection() {
					excluded = true
				}
			}
			if r.failed[st.primary] {
				excluded = true
			}
			if !excluded {
				leaders = append(leaders, st.primary)
			}
		}
		sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
		// The common resume round must clear every replica's in-flight
		// window; 2×Window beyond the super-primary's own frontier covers
		// the out-of-order spread.
		start := r.maxDecided + types.Round(2*r.cfg.Window) + 1
		ne := &types.NewEpoch{Replica: r.env.ID(), Epoch: m.Epoch, Leaders: leaders, StartRound: start}
		r.env.Broadcast(ne)
	}
}

// onEpochEscalation fires when the super-primary of a pending epoch change
// failed to install the new epoch in time: move on to the next epoch, whose
// super-primary is the next replica in round-robin order.
func (r *Replica) onEpochEscalation(epoch uint64) {
	if !r.changing || epoch != r.pendingEpoch {
		return
	}
	ec := &types.EpochChange{Replica: r.env.ID(), Epoch: epoch + 1, Failed: r.pendingFailed}
	ec.Inst = r.pendingFailed
	r.env.Broadcast(ec)
	r.pendingEpoch = epoch + 1
	r.env.SetTimer(sm.TimerID{Kind: sm.TimerEpoch, Round: types.Round(epoch + 1)}, r.cfg.ProgressTimeout)
}

func (r *Replica) onNewEpoch(from types.ReplicaID, m *types.NewEpoch) {
	if m.Epoch <= r.epoch || from != r.superPrimary(m.Epoch) {
		return
	}
	r.epoch = m.Epoch
	r.changing = false
	r.env.Logf("mirbft: epoch %d installed, %d leaders", m.Epoch, len(m.Leaders))
	if r.pendingEpoch != 0 {
		r.env.CancelTimer(sm.TimerID{Kind: sm.TimerEpoch, Round: types.Round(r.pendingEpoch)})
		r.pendingEpoch = 0
	}
	enabled := make(map[types.ReplicaID]bool, len(m.Leaders))
	for _, l := range m.Leaders {
		enabled[l] = true
	}
	// The common resume round comes from the NEW-EPOCH message: everything
	// below it is settled per instance (decided rounds execute, the rest
	// are void). Simplification vs real Mir-BFT: rounds in flight at the
	// epoch boundary are voided on replicas that had not committed them
	// (gracious epoch-change state transfer is out of scope); the Fig. 10
	// contrast — global halt vs RCC's wait-free recovery — is unaffected.
	resume := m.StartRound
	if resume <= r.maxDecided {
		resume = r.maxDecided + 1
	}
	for _, st := range r.states {
		st.suspected = false
		st.enabled = enabled[st.primary]
		r.failed[st.primary] = !st.enabled
		if resume > st.voidBelow {
			st.voidBelow = resume
		}
		st.inst.SkipTo(resume)
		if st.enabled {
			st.inst.ResumeAt(resume)
		}
	}
	r.tryExecute()
	r.maybeNoOpFill()
	// The super-primary of the *next* epoch change is responsible for
	// gradually re-enabling leaders once the system is stable.
	if r.superPrimary(r.epoch+1) == r.env.ID() && len(m.Leaders) < len(r.states) {
		r.env.SetTimer(sm.TimerID{Kind: sm.TimerEpoch}, r.cfg.StabilityInterval)
	}
}

// onStabilityTimer re-enables one disabled leader (Fig. 10 points e and f).
func (r *Replica) onStabilityTimer() {
	if r.changing || r.superPrimary(r.epoch+1) != r.env.ID() {
		return
	}
	leaders := make([]types.ReplicaID, 0, len(r.states))
	var disabled []types.ReplicaID
	for _, st := range r.states {
		if st.enabled {
			leaders = append(leaders, st.primary)
		} else {
			disabled = append(disabled, st.primary)
		}
	}
	if len(disabled) == 0 {
		return
	}
	sort.Slice(disabled, func(i, j int) bool { return disabled[i] < disabled[j] })
	r.failed[disabled[0]] = false
	leaders = append(leaders, disabled[0])
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	ne := &types.NewEpoch{
		Replica: r.env.ID(), Epoch: r.epoch + 1, Leaders: leaders,
		StartRound: r.maxDecided + types.Round(2*r.cfg.Window) + 1,
	}
	r.env.Broadcast(ne)
}

// onDecision receives one instance decision.
func (r *Replica) onDecision(inst types.InstanceID, d sm.Decision) {
	st := r.states[inst]
	if _, dup := st.decided[d.Round]; dup {
		return
	}
	st.decided[d.Round] = d
	if d.Round > st.lastDec {
		st.lastDec = d.Round
	}
	if d.Round > r.maxDecided {
		r.maxDecided = d.Round
	}
	r.maybeNoOpFill()
	r.tryExecute()
}

// tryExecute delivers completed rounds: a round is complete when every
// enabled instance decided it and every disabled instance has it void.
func (r *Replica) tryExecute() {
	for {
		type slot struct {
			inst types.InstanceID
			dec  sm.Decision
		}
		slots := make([]slot, 0, len(r.states))
		complete := true
		for _, st := range r.states {
			if d, ok := st.decided[r.execRound]; ok {
				slots = append(slots, slot{st.id, d})
				continue
			}
			if r.execRound < st.voidBelow || !st.enabled {
				continue
			}
			complete = false
			break
		}
		if !complete || r.changing {
			return
		}
		if len(slots) == 0 {
			// Nothing decided this round anywhere and all instances
			// void or disabled: advance only if some instance is ahead,
			// else wait for demand.
			anyAhead := false
			for _, st := range r.states {
				if st.lastDec >= r.execRound {
					anyAhead = true
				}
			}
			if !anyAhead {
				return
			}
		}
		for _, s := range slots {
			r.env.Deliver(s.dec)
		}
		for _, s := range slots {
			delete(r.states[s.inst].decided, r.execRound)
		}
		r.roundsExecuted++
		r.execRound++
	}
}

// maybeNoOpFill keeps the local leader's instance in step with the most
// advanced instance so rounds complete (same role as RCC's no-op filling).
func (r *Replica) maybeNoOpFill() {
	if r.changing {
		return
	}
	own, ok := r.OwnInstance()
	if !ok {
		return
	}
	st := r.states[own]
	if !st.enabled || st.inst.Halted() {
		return
	}
	if st.inst.Pending() > 0 {
		return
	}
	for st.inst.NextProposeRound() <= r.maxDecided {
		if !st.inst.Propose(types.NoOpBatch()) {
			return
		}
		r.noopsProposed++
	}
}

// instEnv adapts sm.Env for one hosted instance.
type instEnv struct {
	outer sm.Env
	mgr   *Replica
	inst  types.InstanceID
}

var _ sm.Env = (*instEnv)(nil)

func (e *instEnv) ID() types.ReplicaID                          { return e.outer.ID() }
func (e *instEnv) Params() quorum.Params                        { return e.outer.Params() }
func (e *instEnv) Send(to types.ReplicaID, m types.Message)     { e.outer.Send(to, m) }
func (e *instEnv) Broadcast(m types.Message)                    { e.outer.Broadcast(m) }
func (e *instEnv) SendClient(c types.ClientID, m types.Message) { e.outer.SendClient(c, m) }
func (e *instEnv) SetTimer(id sm.TimerID, d time.Duration)      { e.outer.SetTimer(id, d) }
func (e *instEnv) CancelTimer(id sm.TimerID)                    { e.outer.CancelTimer(id) }
func (e *instEnv) Now() time.Duration                           { return e.outer.Now() }
func (e *instEnv) Logf(format string, args ...any)              { e.outer.Logf(format, args...) }
func (e *instEnv) Deliver(d sm.Decision)                        { e.mgr.onDecision(e.inst, d) }
func (e *instEnv) Suspect(inst types.InstanceID, round types.Round) {
	e.mgr.suspectInstance(e.inst, round)
}
