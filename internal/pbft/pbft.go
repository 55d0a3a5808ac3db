// Package pbft implements the PBFT Byzantine commit algorithm
// (preprepare-prepare-commit, §III-A and Example III.1 of the RCC paper)
// together with PBFT's view-change and checkpoint protocols.
//
// The implementation supports two modes:
//
//   - Standalone: a complete primary-backup consensus protocol with view
//     changes and periodic checkpoints — the PBFT baseline of the paper's
//     evaluation.
//   - RCC mode (Config.FixedPrimary): the instance has a fixed primary and
//     never changes views; detected failures are reported through
//     Env.Suspect so the RCC paradigm can run its wait-free recovery
//     (paper Fig. 4) instead.
//
// Out-of-order processing (§V-B) is supported through a proposal window:
// the primary may propose round ρ+k while round ρ is still committing,
// which is what lets PBFT (and RCC over PBFT) saturate primary bandwidth.
//
// The primary batches queued client requests in one of two regimes, chosen
// from what it observes (see maybeProposeBatch):
//
//   - Load (the default): batches fill to Config.BatchSize, and
//     Config.BatchTimeout is the backstop for a batch that does not fill.
//     It is a deadline, which arrivals do not move, measured patiently
//     (sm.BatchDeadline): from the first moment after the last proposal at
//     which the primary had a free window slot and a queued request.
//   - Light: the last proposal left nothing queued and the pipeline
//     occupancy is below 1/4. A partial batch then goes out lightWait after
//     the last proposal, once nothing is in flight.
//
// Occupancy is the primary's mean number of own proposals in flight by
// Little's law: a moving average of their commit latency over a moving
// average of the gap between them. Below 1/4 the pipeline is idle at least
// three quarters of the time, so smaller batches spend only idle capacity
// on latency (the paper's batch-size trade, §V Fig. 8e–f). Above it, each
// extra round would be matched by every other RCC instance (see
// rcc.Replica.maybeNoOpFill), multiplying rounds and breaking the in-phase
// proposing that cross-instance frame coalescing relies on.
package pbft

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes one PBFT instance.
type Config struct {
	// Instance is the consensus instance this machine serves.
	Instance types.InstanceID
	// Primary is the initial primary. In FixedPrimary mode it never
	// changes; otherwise the primary of view v is replica (Primary+v) mod n.
	Primary types.ReplicaID
	// FixedPrimary selects RCC mode: no view changes; failures are
	// reported via Env.Suspect.
	FixedPrimary bool
	// Window is the out-of-order proposal window: the primary may have
	// up to Window proposals in flight. Window <= 1 disables
	// out-of-order processing (the Fig. 8 (g,h) configuration).
	Window int
	// CheckpointEvery emits a checkpoint every so many rounds
	// (0 disables periodic checkpoints; RCC uses dynamic per-need
	// checkpoints instead, implemented in internal/rcc).
	CheckpointEvery types.Round
	// RetainDelivered bounds per-round state: delivered rounds more than
	// this many rounds behind the delivery frontier are garbage-collected
	// even without a stable checkpoint. The retained window is what
	// FAILURE messages and view changes can still attach as evidence;
	// anything older was delivered by a quorum and is recoverable through
	// checkpoints. 0 selects the default of 512.
	RetainDelivered types.Round
	// ProgressTimeout is the failure-detection timeout: if an expected
	// decision does not arrive in time, the primary is suspected.
	ProgressTimeout time.Duration
	// BatchSize is the number of client transactions in a full batch.
	BatchSize int
	// BatchTimeout is the load-regime deadline: queued transactions that
	// have not filled a batch BatchTimeout after the primary could first
	// have proposed them go out as a partial batch, whatever keeps
	// arriving. It is a backstop, long enough (50 ms by default) that a
	// busy primary fills its batches first. In the light regime the
	// deadline is lightWait after the last proposal instead (see the
	// package doc).
	BatchTimeout time.Duration
	// Metrics receives consensus counters, the consensus-stage latency
	// histogram, and lifecycle trace stamps. Nil disables instrumentation.
	Metrics *obs.NodeMetrics
}

const (
	// lightWait is the light-regime deadline. It is a fifth of the default
	// BatchTimeout: at a third of saturation it roughly halves the batch,
	// and it stays several LAN consensus rounds (≈ 1–4 ms) long, so the
	// previous proposal has usually committed when it passes.
	lightWait = 10 * time.Millisecond
	// ewmaShift sets the weight of a new sample in the occupancy averages
	// to 1/8, smoothing over about eight proposals (TCP's SRTT gain).
	ewmaShift = 3
)

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.ProgressTimeout <= 0 {
		c.ProgressTimeout = 500 * time.Millisecond
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 50 * time.Millisecond
	}
	if c.RetainDelivered <= 0 {
		c.RetainDelivered = 512
	}
}

// round tracks the state of one consensus round.
type round struct {
	view        types.View
	digest      types.Digest
	batch       *types.Batch
	seenAt      time.Duration // env.Now() when the proposal was first seen
	preprepared bool
	prepares    map[types.Digest]map[types.ReplicaID]struct{}
	commits     map[types.Digest]map[types.ReplicaID]struct{}
	prepared    bool
	committed   bool
	delivered   bool
	sentPrepare bool
	sentCommit  bool
}

// txKey identifies one client transaction for deduplication.
type txKey struct {
	c types.ClientID
	s uint64
}

func newRound() *round {
	return &round{
		prepares: make(map[types.Digest]map[types.ReplicaID]struct{}),
		commits:  make(map[types.Digest]map[types.ReplicaID]struct{}),
	}
}

func addVote(m map[types.Digest]map[types.ReplicaID]struct{}, d types.Digest, r types.ReplicaID) int {
	s, ok := m[d]
	if !ok {
		s = make(map[types.ReplicaID]struct{})
		m[d] = s
	}
	s[r] = struct{}{}
	return len(s)
}

func voters(m map[types.Digest]map[types.ReplicaID]struct{}, d types.Digest) []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(m[d]))
	for r := range m[d] {
		out = append(out, r)
	}
	return out
}

// Instance is one PBFT machine. It implements sm.Instance.
type Instance struct {
	cfg Config
	env sm.Env

	view    types.View
	rounds  map[types.Round]*round
	next    types.Round // next round the primary proposes (1-based)
	deliver types.Round // next round to deliver (in order)
	halted  bool
	// resumeFloor is the lowest round this instance may operate in after
	// an RCC recovery (Fig. 4 line 12).
	resumeFloor types.Round
	// nextGC is the delivery round at which the next retention sweep runs.
	nextGC types.Round

	// Standalone batching of client requests. lastSeq tracks the highest
	// delivered sequence number per client so duplicates and already
	// executed requests are not re-proposed; pendingSet covers requests
	// queued or in flight (proposed but not yet delivered), so client
	// retransmissions cannot enter a second round.
	pending    []queuedTx
	pendingSet map[txKey]struct{}
	// staleTxns counts delivered transactions since the last queue
	// compaction (amortization counter).
	staleTxns int
	lastSeq   map[types.ClientID]uint64
	// syncSeq carries dedup floors established OUTSIDE this instance's own
	// delivery prefix — RCC's composite delivery frontier, pushed down after
	// a state-transfer install (MergeDeliveredSeqs). Kept apart from lastSeq
	// because lastSeq is serialized into sync points and must stay a pure
	// function of the delivered prefix (byte-identical across replicas at
	// the same frontier); dedup checks consult the max of both.
	syncSeq map[types.ClientID]uint64

	// Checkpoints. chain is the incremental digest chain over the
	// delivered prefix; chainAt records the chain value after each
	// delivered round (garbage-collected at stable checkpoints).
	stableCkp types.Round
	chain     types.Digest
	chainAt   map[types.Round]types.Digest
	ckpVotes  map[types.Round]map[types.Digest]map[types.ReplicaID]struct{}
	ckpBodies map[types.Round]map[types.ReplicaID][]types.AcceptedProposal

	// View change state (standalone mode). vcAnnounced tracks the highest
	// view each replica announced (the synchronization rule); vcBackoff
	// doubles the view-change timer on consecutive failed attempts.
	inViewChange bool
	vcVotes      map[types.View]map[types.ReplicaID]*types.ViewChange
	vcAnnounced  map[types.ReplicaID]types.View
	vcBackoff    time.Duration
	// viewInstalled, when set, is invoked after a NEW-VIEW is adopted.
	// RCC uses it to have a fresh coordinating leader propose a pending
	// stop operation immediately and to grant it a fresh timeout.
	viewInstalled func(types.View)

	timerArmed bool

	// Batching regime state (see maybeProposeBatch). leftQueued records
	// whether the last proposal left transactions queued; commitAvg and
	// gapAvg are moving averages of the commit latency of this primary's
	// proposals and of the gap between them.
	batch      sm.BatchDeadline
	leftQueued bool
	commitAvg  time.Duration
	gapAvg     time.Duration
}

// queuedTx is a queued client transaction and the time it was queued.
type queuedTx struct {
	types.Transaction
	at time.Duration
}

var _ sm.Instance = (*Instance)(nil)

// New creates a PBFT instance.
func New(cfg Config) *Instance {
	cfg.defaults()
	return &Instance{
		cfg:        cfg,
		rounds:     make(map[types.Round]*round),
		next:       1,
		deliver:    1,
		chainAt:    make(map[types.Round]types.Digest),
		pendingSet: make(map[txKey]struct{}),
		lastSeq:    make(map[types.ClientID]uint64),
		syncSeq:    make(map[types.ClientID]uint64),
		ckpVotes:   make(map[types.Round]map[types.Digest]map[types.ReplicaID]struct{}),
		ckpBodies:  make(map[types.Round]map[types.ReplicaID][]types.AcceptedProposal),
		vcVotes:    make(map[types.View]map[types.ReplicaID]*types.ViewChange),
	}
}

// Start implements sm.Machine.
func (p *Instance) Start(env sm.Env) { p.env = env }

// Config returns the instance configuration.
func (p *Instance) Config() Config { return p.cfg }

// View returns the current view.
func (p *Instance) View() types.View { return p.view }

// primaryOf returns the primary of view v.
func (p *Instance) primaryOf(v types.View) types.ReplicaID {
	if p.cfg.FixedPrimary {
		return p.cfg.Primary
	}
	n := p.env.Params().N
	return types.ReplicaID((int(p.cfg.Primary) + int(v)) % n)
}

// IsPrimary reports whether the local replica leads the current view.
func (p *Instance) IsPrimary() bool { return p.primaryOf(p.view) == p.env.ID() }

func (p *Instance) getRound(r types.Round) *round {
	rd, ok := p.rounds[r]
	if !ok {
		rd = newRound()
		p.rounds[r] = rd
	}
	return rd
}

// inFlight counts proposals the primary started that have not committed
// locally. Rounds below the resume floor are void by agreement, not in
// flight.
func (p *Instance) inFlight() int {
	n := 0
	start := p.deliver
	if p.resumeFloor > start {
		start = p.resumeFloor
	}
	for r := start; r < p.next; r++ {
		if rd, ok := p.rounds[r]; !ok || !rd.committed {
			n++
		}
	}
	return n
}

// mayPropose reports whether Propose would accept a batch now.
func (p *Instance) mayPropose() bool {
	return !p.halted && !p.inViewChange && p.IsPrimary() && p.inFlight() < p.cfg.Window
}

// Propose implements sm.Instance: the primary assigns the next round to
// batch and broadcasts a PREPREPARE.
func (p *Instance) Propose(batch *types.Batch) bool {
	if !p.mayPropose() {
		return false
	}
	p.leftQueued = len(p.pending) > 0
	p.gapAvg = ewma(p.gapAvg, p.batch.Proposed(p.env.Now(), !p.leftQueued || p.inFlight()+1 >= p.cfg.Window))
	r := p.next
	if r < p.resumeFloor {
		r = p.resumeFloor
		p.next = r
	}
	p.next++
	d := batch.Digest()
	pp := &types.PrePrepare{View: p.view, Round: r, Digest: d, Batch: batch}
	pp.Inst = p.cfg.Instance
	p.env.Broadcast(pp)
	return true
}

// NextProposeRound implements sm.Instance.
func (p *Instance) NextProposeRound() types.Round {
	if p.next < p.resumeFloor {
		return p.resumeFloor
	}
	return p.next
}

// LastAccepted implements sm.Instance.
func (p *Instance) LastAccepted() (types.Round, bool) {
	var max types.Round
	found := false
	for r, rd := range p.rounds {
		if rd.committed && r > max {
			max, found = r, true
		}
	}
	return max, found
}

// Halt implements sm.Instance.
func (p *Instance) Halt() {
	p.halted = true
	p.disarmTimer()
}

// Halted implements sm.Instance.
func (p *Instance) Halted() bool { return p.halted }

// ResumeAt implements sm.Instance. Rounds below r that are neither adopted
// (AdoptDecision) nor voided (SkipTo) by the recovery layer keep delivery
// parked; RCC's handleStop covers every such round before calling ResumeAt.
func (p *Instance) ResumeAt(r types.Round) {
	p.halted = false
	p.resumeFloor = r
	if p.next < r {
		p.next = r
	}
	p.tryDeliver()
	// In standalone mode, restart failure detection if requests are still
	// waiting. In RCC mode the instance is dormant until other instances
	// approach the resume round (the restart penalty, Fig. 4 line 12);
	// re-suspicion is the RCC lag detector's job, not the progress timer's,
	// as otherwise a permanently crashed primary would be re-suspected
	// immediately and drive an unbounded recovery spin.
	if !p.cfg.FixedPrimary && p.outstandingWork() {
		p.armTimer()
	}
}

// SkipTo voids every round in [deliver, target) for which no commit exists
// (RCC recovery agreed those rounds hold no proposal): committed rounds in
// the range are delivered in order, and each maximal gap of void rounds
// advances the checkpoint chain by a single range step. The cost is
// proportional to the number of materialized rounds, not to the width of
// the range — restart penalties can span millions of rounds (Fig. 4
// line 12) and must not be walked one by one.
func (p *Instance) SkipTo(target types.Round) {
	if target <= p.deliver {
		return
	}
	queued := make(map[txKey]struct{}, len(p.pending))
	for i := range p.pending {
		queued[txKey{p.pending[i].Client, p.pending[i].Seq}] = struct{}{}
	}
	committed := make([]types.Round, 0, 8)
	for r, rd := range p.rounds {
		if r < p.deliver || r >= target {
			continue
		}
		if rd.committed {
			if !rd.delivered {
				committed = append(committed, r)
			}
			continue
		}
		// The round is void by agreement; discard any partial state, but
		// put its in-flight transactions back in the queue so clients'
		// requests are not silently lost with the voided round.
		p.requeueVoided(rd.batch, queued)
		delete(p.rounds, r)
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i] < committed[j] })
	for _, c := range committed {
		if c > p.deliver {
			p.chain = chainStep(p.chain, voidRangeDigest(p.deliver, c))
		}
		rd := p.rounds[c]
		rd.delivered = true
		p.chain = chainStep(p.chain, rd.digest)
		p.chainAt[c] = p.chain
		p.markDelivered(rd.batch)
		p.env.Deliver(sm.Decision{
			Instance: p.cfg.Instance,
			Round:    c,
			View:     rd.view,
			Digest:   rd.digest,
			Batch:    rd.batch,
			Signers:  voters(rd.commits, rd.digest),
		})
		p.deliver = c + 1
	}
	if p.deliver < target {
		p.chain = chainStep(p.chain, voidRangeDigest(p.deliver, target))
		p.deliver = target
	}
	p.chainAt[target-1] = p.chain
	p.resetTimerAfterProgress()
	p.tryDeliver()
}

// requeueVoided returns a voided round's undelivered transactions to the
// pending queue (primaries re-propose them after the resume round).
func (p *Instance) requeueVoided(b *types.Batch, queued map[txKey]struct{}) {
	if b == nil {
		return
	}
	for i := range b.Txns {
		tx := b.Txns[i]
		if tx.IsNoOp() || tx.Seq <= p.seqFloor(tx.Client) {
			continue
		}
		key := txKey{tx.Client, tx.Seq}
		if _, inQueue := queued[key]; inQueue {
			continue // still queued, nothing lost
		}
		if _, tracked := p.pendingSet[key]; tracked {
			p.pending = append(p.pending, queuedTx{tx, p.env.Now()})
			queued[key] = struct{}{}
		}
	}
}

// StateForRecovery implements sm.Instance (Assumption A3): the accepted and
// prepared proposals of this replica.
func (p *Instance) StateForRecovery() []types.AcceptedProposal {
	out := make([]types.AcceptedProposal, 0, len(p.rounds))
	for r, rd := range p.rounds {
		if rd.batch == nil {
			continue
		}
		if rd.committed || rd.prepared {
			out = append(out, types.AcceptedProposal{
				Round: r, View: rd.view, Digest: rd.digest,
				Batch: rd.batch, Prepared: true,
			})
		}
	}
	return out
}

// AdoptDecision implements sm.Instance: installs a decision recovered by
// RCC recovery or a checkpoint without re-running the commit phases.
func (p *Instance) AdoptDecision(d sm.Decision) {
	rd := p.getRound(d.Round)
	if rd.committed {
		return
	}
	rd.view = d.View
	rd.digest = d.Digest
	rd.batch = d.Batch
	rd.preprepared = true
	rd.prepared = true
	rd.committed = true
	if d.Round >= p.next {
		p.next = d.Round + 1
	}
	p.tryDeliver()
}

// Pending implements sm.Instance.
func (p *Instance) Pending() int { return len(p.pending) }

// OnMessage implements sm.Machine.
func (p *Instance) OnMessage(from sm.Source, m types.Message) {
	if p.halted {
		// A halted instance ignores everything except checkpoints,
		// which remain live so in-the-dark replicas can still catch
		// up (checkpoints run concurrently, §III-D).
		if m.Type() != types.MsgCheckpoint {
			return
		}
	}
	switch msg := m.(type) {
	case *types.ClientRequest:
		p.onClientRequest(from, msg)
	case *types.PrePrepare:
		p.onPrePrepare(from.Replica, msg)
	case *types.Prepare:
		p.onPrepare(msg)
	case *types.Commit:
		p.onCommit(msg)
	case *types.Checkpoint:
		p.onCheckpoint(msg)
	case *types.ViewChange:
		p.onViewChange(msg)
	case *types.NewView:
		p.onNewView(from.Replica, msg)
	}
}

// onClientRequest queues a request's transactions; the primary then
// proposes what its batching regime allows (maybeProposeBatch).
func (p *Instance) onClientRequest(from sm.Source, m *types.ClientRequest) {
	queued := false
	now := p.env.Now()
	for i := range m.Txns {
		tx := &m.Txns[i]
		if tx.IsNoOp() || tx.Seq <= p.seqFloor(tx.Client) {
			continue // already executed or filler
		}
		key := txKey{tx.Client, tx.Seq}
		if _, dup := p.pendingSet[key]; dup {
			continue // queued or already in flight
		}
		p.pendingSet[key] = struct{}{}
		p.pending = append(p.pending, queuedTx{*tx, now})
		queued = true
		if met := p.cfg.Metrics; met != nil {
			met.Requests.Inc()
			met.Trace(uint64(tx.Client), tx.Seq, obs.PointArrive)
		}
	}
	if !queued {
		return
	}
	if !p.IsPrimary() {
		// A backup starts its failure-detection timer when it learns
		// of a request: the primary must propose it in time.
		p.armTimer()
		return
	}
	p.maybeProposeBatch()
}

// maybeProposeBatch proposes full batches while the window has room, then
// the rest of the queue as a partial batch once the regime's deadline has
// passed (see the package doc). In the light regime the partial also waits
// until nothing is in flight; the delivery that empties the window
// re-enters here through tryDeliver.
func (p *Instance) maybeProposeBatch() {
	for len(p.pending) > 0 && p.mayPropose() {
		if len(p.pending) >= p.cfg.BatchSize {
			p.cut()
			continue
		}
		light := p.lightRegime()
		wait := p.cfg.BatchTimeout
		if light {
			wait = lightWait
		}
		if !p.batch.Passed(p.env, p.cfg.Instance, wait, !light) || light && p.inFlight() > 0 {
			return
		}
		if p.cut() && light {
			if met := p.cfg.Metrics; met != nil {
				met.LightPartials.Inc()
			}
		}
	}
}

// lightRegime reports whether the last proposal left nothing queued and the
// pipeline occupancy, commitAvg/gapAvg, is below 1/4. Before the first
// samples the primary counts as idle.
func (p *Instance) lightRegime() bool {
	return !p.leftQueued && 4*p.commitAvg <= p.gapAvg
}

// ewma folds sample into avg with weight 1/2^ewmaShift; the first sample
// seeds it.
func ewma(avg, sample time.Duration) time.Duration {
	if avg == 0 {
		return sample
	}
	return avg + (sample-avg)>>ewmaShift
}

// cut proposes up to BatchSize queued transactions as one batch and
// observes the batch stage for the oldest of them. The caller has checked
// mayPropose, so Propose accepts the batch. It reports false when the
// queue held only stale entries.
func (p *Instance) cut() bool {
	txns, oldest := p.takeBatch(p.cfg.BatchSize)
	if len(txns) == 0 {
		return false
	}
	p.Propose(&types.Batch{Txns: txns})
	if met := p.cfg.Metrics; met != nil {
		met.ObserveStage(obs.StageBatch, p.env.Now()-oldest)
	}
	return true
}

// ProposePending implements sm.Instance.
func (p *Instance) ProposePending() bool {
	return len(p.pending) > 0 && p.mayPropose() && p.cut()
}

func (p *Instance) onPrePrepare(from types.ReplicaID, m *types.PrePrepare) {
	if m.View != p.view || from != p.primaryOf(m.View) || p.inViewChange {
		return
	}
	if m.Round < p.resumeFloor || m.Batch == nil {
		return
	}
	if m.Batch.Digest() != m.Digest {
		// Malformed proposal: treat as primary failure evidence.
		p.suspect(m.Round)
		return
	}
	rd := p.getRound(m.Round)
	if rd.preprepared {
		if rd.digest != m.Digest {
			// Equivocation by the primary.
			p.suspect(m.Round)
		}
		return
	}
	rd.view = m.View
	rd.digest = m.Digest
	rd.batch = m.Batch
	rd.preprepared = true
	rd.seenAt = p.env.Now()
	if met := p.cfg.Metrics; met.Tracing() {
		for i := range m.Batch.Txns {
			tx := &m.Batch.Txns[i]
			met.Trace(uint64(tx.Client), tx.Seq, obs.PointPropose)
		}
	}
	p.armTimer()

	if !rd.sentPrepare {
		rd.sentPrepare = true
		p.env.Broadcast(types.NewPrepare(p.cfg.Instance, p.env.ID(), m.View, m.Round, m.Digest))
	}
	// The primary's preprepare counts as its prepare vote.
	p.tallyPrepare(m.Round, rd, from, m.Digest)
}

func (p *Instance) onPrepare(m *types.Prepare) {
	if m.View != p.view || p.inViewChange || m.Round < p.resumeFloor {
		return
	}
	rd := p.getRound(m.Round)
	p.tallyPrepare(m.Round, rd, m.Replica, m.Digest)
}

func (p *Instance) tallyPrepare(rnd types.Round, rd *round, from types.ReplicaID, d types.Digest) {
	n := addVote(rd.prepares, d, from)
	if rd.prepared || n < p.env.Params().NF() {
		return
	}
	if !rd.preprepared || rd.digest != d {
		return // wait for the matching preprepare
	}
	rd.prepared = true
	if !rd.sentCommit {
		rd.sentCommit = true
		p.env.Broadcast(types.NewCommit(p.cfg.Instance, p.env.ID(), rd.view, rnd, d))
	}
}

func (p *Instance) onCommit(m *types.Commit) {
	if p.inViewChange || m.Round < p.resumeFloor {
		return
	}
	rd := p.getRound(m.Round)
	n := addVote(rd.commits, m.Digest, m.Replica)
	if rd.committed || n < p.env.Params().NF() {
		return
	}
	if !rd.prepared || rd.digest != m.Digest {
		// A commit certificate can complete before our own prepare
		// certificate in asynchronous networks; accept only once the
		// local preprepare matches.
		if !rd.preprepared || rd.digest != m.Digest {
			return
		}
		rd.prepared = true
	}
	rd.committed = true
	p.tryDeliver()
}

// tryDeliver delivers committed rounds in order.
func (p *Instance) tryDeliver() {
	progressed := false
	for {
		rd, ok := p.rounds[p.deliver]
		if !ok {
			break
		}
		if !rd.committed || rd.delivered {
			break
		}
		rd.delivered = true
		p.chain = chainStep(p.chain, rd.digest)
		p.chainAt[p.deliver] = p.chain
		p.markDelivered(rd.batch)
		if rd.seenAt > 0 && p.primaryOf(rd.view) == p.env.ID() {
			p.commitAvg = ewma(p.commitAvg, p.env.Now()-rd.seenAt)
		}
		if met := p.cfg.Metrics; met != nil {
			met.Decided.Inc()
			if rd.seenAt > 0 {
				met.ObserveStage(obs.StageConsensus, p.env.Now()-rd.seenAt)
			}
			if met.Tracing() && rd.batch != nil {
				for i := range rd.batch.Txns {
					tx := &rd.batch.Txns[i]
					met.Trace(uint64(tx.Client), tx.Seq, obs.PointDecide)
				}
			}
		}
		p.env.Deliver(sm.Decision{
			Instance: p.cfg.Instance,
			Round:    p.deliver,
			View:     rd.view,
			Digest:   rd.digest,
			Batch:    rd.batch,
			Signers:  voters(rd.commits, rd.digest),
		})
		if p.cfg.CheckpointEvery > 0 && p.deliver%p.cfg.CheckpointEvery == 0 {
			p.emitCheckpoint(p.deliver)
		}
		p.deliver++
		progressed = true
	}
	if progressed {
		p.resetTimerAfterProgress()
		p.gcDelivered()
	}
	if p.IsPrimary() {
		p.maybeProposeBatch()
	}
}

// gcDelivered drops delivered per-round state older than the retention
// window (stable checkpoints GC more aggressively when enabled). The scan
// is amortized: it runs once every quarter-window of delivery progress.
func (p *Instance) gcDelivered() {
	if p.deliver <= p.cfg.RetainDelivered || p.deliver < p.nextGC {
		return
	}
	p.nextGC = p.deliver + p.cfg.RetainDelivered/4
	floor := p.deliver - p.cfg.RetainDelivered
	for r, rd := range p.rounds {
		if r < floor && rd.delivered {
			delete(p.rounds, r)
			delete(p.chainAt, r)
		}
	}
}

// Delivered returns the next round awaiting delivery (i.e. all rounds below
// have been delivered).
func (p *Instance) Delivered() types.Round { return p.deliver }

// markDelivered records delivered client sequence numbers and drops the
// corresponding queued requests, so backups stop waiting on them and no
// replica re-proposes them after a view change.
func (p *Instance) markDelivered(b *types.Batch) {
	if b == nil {
		return
	}
	for i := range b.Txns {
		tx := &b.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		delete(p.pendingSet, txKey{tx.Client, tx.Seq})
		// Only delivery advances lastSeq: it must remain a pure function of
		// the delivered prefix (sync points serialize it).
		if tx.Seq > p.lastSeq[tx.Client] {
			p.lastSeq[tx.Client] = tx.Seq
		}
	}
	// Compact the queue only when at least half of it is stale: a scan per
	// delivered batch is O(backlog) and melts down under open-loop
	// overload; amortized compaction is O(1) per transaction.
	p.staleTxns += b.Len()
	if len(p.pending) == 0 || 2*p.staleTxns < len(p.pending) {
		return
	}
	p.staleTxns = 0
	kept := p.pending[:0]
	for i := range p.pending {
		tx := &p.pending[i]
		if _, live := p.pendingSet[txKey{tx.Client, tx.Seq}]; live && tx.Seq > p.seqFloor(tx.Client) {
			kept = append(kept, *tx)
		}
	}
	p.pending = kept
}

// emit records a flight event attributed to this replica and instance.
func (p *Instance) emit(kind flight.Kind, view types.View, seq, detail uint64) {
	p.cfg.Metrics.Emit(uint16(p.env.ID()), flight.SubPBFT, kind, uint32(p.cfg.Instance), uint64(view), seq, detail)
}

// suspect reports a detected primary failure.
func (p *Instance) suspect(rnd types.Round) {
	if met := p.cfg.Metrics; met != nil {
		met.Suspects.Inc()
	}
	p.emit(flight.KSuspect, p.view, uint64(rnd), 0)
	if p.cfg.FixedPrimary {
		p.env.Suspect(p.cfg.Instance, rnd)
		return
	}
	// A backup that cannot deliver may not be facing a dead primary at
	// all — it may simply be behind (restarted from a wiped or stale
	// disk while the cluster moved on). Kick state transfer alongside
	// the view change: if we are current it is a no-op probe; if we are
	// behind, healing the gap is what actually restores liveness (the
	// view change alone never can — no view has the history we lack).
	p.reportSyncGap()
	p.startViewChange(p.view + 1)
}

// OnTimer implements sm.Machine.
func (p *Instance) OnTimer(id sm.TimerID) {
	if p.halted {
		return
	}
	switch id.Kind {
	case sm.TimerProgress:
		p.timerArmed = false
		if p.outstandingWork() {
			p.suspect(p.deliver)
		}
	case sm.TimerBatch:
		p.batch.Fired()
		if p.IsPrimary() {
			p.maybeProposeBatch()
		}
	case sm.TimerViewChange:
		if p.inViewChange {
			// The new primary failed to install the view in time.
			p.env.Logf("pbft[%d]: view %d timed out", p.cfg.Instance, p.view)
			p.startViewChange(p.view + 1)
		}
	}
}

// outstandingWork reports whether the replica is waiting on the primary.
func (p *Instance) outstandingWork() bool {
	if len(p.pending) > 0 && !p.IsPrimary() {
		return true
	}
	for r, rd := range p.rounds {
		if r >= p.deliver && r >= p.resumeFloor && rd.preprepared && !rd.committed {
			return true
		}
	}
	return false
}

func (p *Instance) armTimer() {
	if p.timerArmed || p.halted {
		return
	}
	p.timerArmed = true
	p.env.SetTimer(sm.TimerID{Instance: p.cfg.Instance, Kind: sm.TimerProgress}, p.cfg.ProgressTimeout)
}

func (p *Instance) resetTimerAfterProgress() {
	p.timerArmed = false
	p.env.CancelTimer(sm.TimerID{Instance: p.cfg.Instance, Kind: sm.TimerProgress})
	if p.outstandingWork() {
		p.armTimer()
	}
}

func (p *Instance) disarmTimer() {
	p.timerArmed = false
	p.env.CancelTimer(sm.TimerID{Instance: p.cfg.Instance, Kind: sm.TimerProgress})
}

// seqFloor is the per-client dedup floor: the highest sequence number known
// executed, whether delivered by this instance (lastSeq) or established
// externally through a state-transfer install (syncSeq).
func (p *Instance) seqFloor(c types.ClientID) uint64 {
	f := p.lastSeq[c]
	if s := p.syncSeq[c]; s > f {
		f = s
	}
	return f
}

// takeBatch pops up to max live transactions from the queue front, skipping
// entries already delivered elsewhere (their pendingSet entry is gone), and
// returns them with the time the oldest of them was queued.
func (p *Instance) takeBatch(max int) (out []types.Transaction, oldest time.Duration) {
	out = make([]types.Transaction, 0, max)
	i := 0
	for ; i < len(p.pending) && len(out) < max; i++ {
		tx := &p.pending[i]
		if _, live := p.pendingSet[txKey{tx.Client, tx.Seq}]; !live || tx.Seq <= p.seqFloor(tx.Client) {
			continue
		}
		if len(out) == 0 || tx.at < oldest {
			oldest = tx.at
		}
		out = append(out, tx.Transaction)
	}
	p.pending = p.pending[i:]
	return out, oldest
}
