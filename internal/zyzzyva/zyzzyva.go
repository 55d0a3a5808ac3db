// Package zyzzyva implements the Zyzzyva speculative Byzantine commit
// algorithm (Kotla et al.) as one instance of RCC-Z (Fig. 9): RCC runs m of
// them concurrently, each with a fixed primary.
//
// The primary assigns an order to a client batch and broadcasts an
// ORDER-REQ carrying a history hash chain; replicas deliver the batch in
// that order as soon as the chain links, without further phases. A replica
// that sees an order request beyond a missing one asks the primary to
// FILL-HOLE.
//
// A primary that equivocates, breaks the history chain, or leaves queued
// work undelivered for ProgressTimeout is reported through Env.Suspect;
// RCC's recovery (Fig. 4) takes the place of Zyzzyva's view change.
// Clients learn results from the runtime's f+1 replies after execution
// (§III-E), as under every RCC variant.
package zyzzyva

import (
	"sort"
	"time"

	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes one Zyzzyva instance.
type Config struct {
	// Instance is the consensus instance this machine serves.
	Instance types.InstanceID
	// Primary is the instance's fixed primary.
	Primary types.ReplicaID
	// Window is the out-of-order proposal window (Zyzzyva supports
	// out-of-order processing, §V-C).
	Window int
	// ProgressTimeout is the failure-detection timeout.
	ProgressTimeout time.Duration
	// BatchSize groups client requests per order request.
	BatchSize int
}

// batchTimeout is the partial-batch deadline: queued transactions that
// have not filled a batch batchTimeout after the primary could first have
// proposed them go out as a partial batch, whatever keeps arriving
// (sm.BatchDeadline, patient).
const batchTimeout = 50 * time.Millisecond

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
}

// round tracks one speculative round.
type round struct {
	view      types.View
	digest    types.Digest
	history   types.Digest // hash chain through this round
	batch     *types.Batch
	ordered   bool // ORDER-REQ received
	committed bool // adopted from RCC recovery or a checkpoint
	delivered bool
}

// Instance is one Zyzzyva machine. It implements sm.Instance.
type Instance struct {
	cfg Config
	env sm.Env

	rounds  map[types.Round]*round
	next    types.Round // next round the primary orders (1-based)
	deliver types.Round // next round to deliver speculatively (in order)
	// history is the delivered-prefix hash chain; orderChain is the
	// primary's proposal-order chain, which runs ahead of history when
	// out-of-order proposals are in flight. Both incorporate the same
	// digests in the same (round) order, so they agree at equal depths.
	history    types.Digest
	orderChain types.Digest
	halted     bool

	resumeFloor types.Round

	pending    []types.Transaction
	pendingSet map[txKey]struct{}
	// staleTxns counts delivered transactions since the last queue
	// compaction (amortization counter).
	staleTxns int
	lastSeq   map[types.ClientID]uint64

	timerArmed bool
	batch      sm.BatchDeadline
}

var _ sm.Instance = (*Instance)(nil)

// New creates a Zyzzyva instance.
func New(cfg Config) *Instance {
	cfg.defaults()
	return &Instance{
		cfg:        cfg,
		rounds:     make(map[types.Round]*round),
		next:       1,
		deliver:    1,
		lastSeq:    make(map[types.ClientID]uint64),
		pendingSet: make(map[txKey]struct{}),
	}
}

// Start implements sm.Machine.
func (z *Instance) Start(env sm.Env) { z.env = env }

// IsPrimary reports whether the local replica is the instance's primary.
func (z *Instance) IsPrimary() bool { return z.cfg.Primary == z.env.ID() }

func (z *Instance) getRound(r types.Round) *round {
	rd, ok := z.rounds[r]
	if !ok {
		rd = &round{}
		z.rounds[r] = rd
	}
	return rd
}

func (z *Instance) inFlight() int {
	n := 0
	start := z.deliver
	if z.resumeFloor > start {
		start = z.resumeFloor
	}
	for r := start; r < z.next; r++ {
		if rd, ok := z.rounds[r]; !ok || !rd.ordered {
			n++
		}
	}
	return n
}

// historyStep extends the order-request history chain.
func historyStep(prev, d types.Digest) types.Digest {
	buf := make([]byte, 0, 64)
	buf = append(buf, prev[:]...)
	buf = append(buf, d[:]...)
	return types.Hash(buf)
}

// Propose implements sm.Instance: the primary assigns the next round to the
// batch and broadcasts an ORDER-REQ.
func (z *Instance) Propose(batch *types.Batch) bool {
	if z.halted || !z.IsPrimary() {
		return false
	}
	if z.inFlight() >= z.cfg.Window {
		return false
	}
	z.batch.Proposed(z.env.Now(), len(z.pending) == 0 || z.inFlight()+1 >= z.cfg.Window)
	r := z.next
	if r < z.resumeFloor {
		r = z.resumeFloor
		z.next = r
	}
	z.next++
	d := batch.Digest()
	z.orderChain = historyStep(z.orderChain, d)
	or := &types.OrderRequest{Round: r, History: z.orderChain, Digest: d, Batch: batch}
	or.Inst = z.cfg.Instance
	z.env.Broadcast(or)
	return true
}

// NextProposeRound implements sm.Instance.
func (z *Instance) NextProposeRound() types.Round {
	if z.next < z.resumeFloor {
		return z.resumeFloor
	}
	return z.next
}

// LastAccepted implements sm.Instance.
func (z *Instance) LastAccepted() (types.Round, bool) {
	var max types.Round
	found := false
	for r, rd := range z.rounds {
		if rd.ordered && r > max {
			max, found = r, true
		}
	}
	return max, found
}

// Halt implements sm.Instance.
func (z *Instance) Halt() {
	z.halted = true
	z.disarmTimer()
}

// Halted implements sm.Instance.
func (z *Instance) Halted() bool { return z.halted }

// ResumeAt implements sm.Instance.
func (z *Instance) ResumeAt(r types.Round) {
	z.halted = false
	z.resumeFloor = r
	if z.next < r {
		z.next = r
	}
	z.tryDeliver()
}

// SkipTo voids every round in [deliver, target) without an ordered batch
// (RCC recovery agreed they hold no proposal); ordered rounds in the range
// are delivered in order. See pbft.Instance.SkipTo for the range-step
// rationale.
func (z *Instance) SkipTo(target types.Round) {
	if target <= z.deliver {
		return
	}
	queued := make(map[txKey]struct{}, len(z.pending))
	for i := range z.pending {
		queued[txKey{z.pending[i].Client, z.pending[i].Seq}] = struct{}{}
	}
	ordered := make([]types.Round, 0, 8)
	for r, rd := range z.rounds {
		if r < z.deliver || r >= target {
			continue
		}
		if rd.ordered {
			if !rd.delivered {
				ordered = append(ordered, r)
			}
			continue
		}
		z.requeueVoided(rd.batch, queued)
		delete(z.rounds, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, c := range ordered {
		rd := z.rounds[c]
		rd.delivered = true
		z.deliverRound(c, rd)
		z.deliver = c + 1
	}
	if z.deliver < target {
		z.deliver = target
	}
	z.tryDeliver()
}

// StateForRecovery implements sm.Instance (Assumption A3): with Zyzzyva's
// fine-tuning for RCC, the speculative order requests a replica holds are
// its recoverable state — a proposal accepted by any non-faulty replica is
// present at nf−f of them.
func (z *Instance) StateForRecovery() []types.AcceptedProposal {
	out := make([]types.AcceptedProposal, 0, len(z.rounds))
	for r, rd := range z.rounds {
		if rd.ordered && rd.batch != nil {
			out = append(out, types.AcceptedProposal{
				Round: r, View: rd.view, Digest: rd.digest,
				Batch: rd.batch, Prepared: rd.committed,
			})
		}
	}
	return out
}

// AdoptDecision implements sm.Instance.
func (z *Instance) AdoptDecision(d sm.Decision) {
	rd := z.getRound(d.Round)
	if rd.ordered {
		return
	}
	rd.view = d.View
	rd.digest = d.Digest
	rd.batch = d.Batch
	rd.ordered = true
	rd.committed = true
	if d.Round >= z.next {
		z.next = d.Round + 1
	}
	z.tryDeliver()
}

// Pending returns the number of queued client transactions.
func (z *Instance) Pending() int { return len(z.pending) }

// OnMessage implements sm.Machine.
func (z *Instance) OnMessage(from sm.Source, m types.Message) {
	if z.halted {
		return
	}
	switch msg := m.(type) {
	case *types.ClientRequest:
		z.onClientRequest(msg)
	case *types.OrderRequest:
		z.onOrderRequest(from.Replica, msg)
	case *types.FillHole:
		z.onFillHole(msg)
	}
}

func (z *Instance) onClientRequest(m *types.ClientRequest) {
	queued := false
	for i := range m.Txns {
		tx := &m.Txns[i]
		if tx.IsNoOp() || tx.Seq <= z.lastSeq[tx.Client] {
			continue
		}
		key := txKey{tx.Client, tx.Seq}
		if _, dup := z.pendingSet[key]; dup {
			continue // queued or already in flight
		}
		z.pendingSet[key] = struct{}{}
		z.pending = append(z.pending, *tx)
		queued = true
	}
	if !queued {
		return
	}
	if !z.IsPrimary() {
		z.armTimer()
		return
	}
	z.maybeProposeBatch()
}

// maybeProposeBatch proposes full batches while the window has room, and
// the rest of the queue as a partial batch once batchTimeout has passed.
func (z *Instance) maybeProposeBatch() {
	for len(z.pending) > 0 && z.inFlight() < z.cfg.Window &&
		(len(z.pending) >= z.cfg.BatchSize || z.batch.Passed(z.env, z.cfg.Instance, batchTimeout, true)) {
		txns := z.takeBatch(z.cfg.BatchSize)
		if len(txns) == 0 {
			continue // only stale entries were consumed; re-check the queue
		}
		if !z.Propose(&types.Batch{Txns: txns}) {
			// Halted: return the batch to the queue front.
			z.pending = append(txns, z.pending...)
			return
		}
	}
}

func (z *Instance) onOrderRequest(from types.ReplicaID, m *types.OrderRequest) {
	// The primary never changes, so every order request is of view 0.
	if m.View != 0 || from != z.cfg.Primary {
		return
	}
	if m.Round < z.resumeFloor || m.Batch == nil {
		return
	}
	if m.Batch.Digest() != m.Digest {
		z.env.Suspect(z.cfg.Instance, m.Round)
		return
	}
	rd := z.getRound(m.Round)
	if rd.ordered {
		if rd.digest != m.Digest {
			// Equivocation: two order requests for the same round.
			z.env.Suspect(z.cfg.Instance, m.Round)
		}
		return
	}
	rd.view = m.View
	rd.digest = m.Digest
	rd.history = m.History
	rd.batch = m.Batch
	rd.ordered = true
	z.armTimer()
	z.tryDeliver()
	// Detect holes: an order request for a round beyond the delivery
	// frontier whose predecessors are missing asks the primary to fill.
	if m.Round > z.deliver {
		if _, ok := z.rounds[z.deliver]; !ok {
			fh := &types.FillHole{Replica: z.env.ID(), From: z.deliver, To: m.Round - 1}
			fh.Inst = z.cfg.Instance
			z.env.Send(z.cfg.Primary, fh)
		}
	}
}

// tryDeliver speculatively delivers ordered rounds in order, verifying the
// history chain links.
func (z *Instance) tryDeliver() {
	progressed := false
	for {
		rd, ok := z.rounds[z.deliver]
		if !ok || !rd.ordered || rd.delivered {
			break
		}
		want := historyStep(z.history, rd.digest)
		if !rd.history.IsZero() && rd.history != want {
			// The primary's chain disagrees with ours: misbehaviour.
			z.env.Suspect(z.cfg.Instance, z.deliver)
			break
		}
		z.history = want
		rd.delivered = true
		z.deliverRound(z.deliver, rd)
		z.deliver++
		progressed = true
	}
	if progressed {
		z.resetTimerAfterProgress()
	}
	if z.IsPrimary() {
		z.maybeProposeBatch()
	}
}

func (z *Instance) deliverRound(r types.Round, rd *round) {
	z.markDelivered(rd.batch)
	z.env.Deliver(sm.Decision{
		Instance: z.cfg.Instance,
		Round:    r,
		View:     rd.view,
		Digest:   rd.digest,
		Batch:    rd.batch,
	})
}

func (z *Instance) markDelivered(b *types.Batch) {
	if b == nil {
		return
	}
	for i := range b.Txns {
		tx := &b.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		delete(z.pendingSet, txKey{tx.Client, tx.Seq})
		if tx.Seq > z.lastSeq[tx.Client] {
			z.lastSeq[tx.Client] = tx.Seq
		}
	}
	// Compact the queue only when at least half of it is stale: a scan per
	// delivered batch is O(backlog) and melts down under open-loop
	// overload; amortized compaction is O(1) per transaction.
	z.staleTxns += b.Len()
	if len(z.pending) == 0 || 2*z.staleTxns < len(z.pending) {
		return
	}
	z.staleTxns = 0
	kept := z.pending[:0]
	for i := range z.pending {
		tx := &z.pending[i]
		if _, live := z.pendingSet[txKey{tx.Client, tx.Seq}]; live && tx.Seq > z.lastSeq[tx.Client] {
			kept = append(kept, *tx)
		}
	}
	z.pending = kept
}

// onFillHole retransmits order requests the sender missed.
func (z *Instance) onFillHole(m *types.FillHole) {
	if !z.IsPrimary() || m.View != 0 {
		return
	}
	for r := m.From; r <= m.To; r++ {
		rd, ok := z.rounds[r]
		if !ok || !rd.ordered || rd.batch == nil {
			continue
		}
		or := &types.OrderRequest{View: rd.view, Round: r, History: rd.history, Digest: rd.digest, Batch: rd.batch}
		or.Inst = z.cfg.Instance
		z.env.Send(m.Replica, or)
	}
}

// OnTimer implements sm.Machine.
func (z *Instance) OnTimer(id sm.TimerID) {
	if z.halted {
		return
	}
	switch id.Kind {
	case sm.TimerProgress:
		z.timerArmed = false
		if z.outstandingWork() {
			z.env.Suspect(z.cfg.Instance, z.deliver)
		}
	case sm.TimerBatch:
		z.batch.Fired()
		if z.IsPrimary() {
			z.maybeProposeBatch()
		}
	}
}

func (z *Instance) outstandingWork() bool {
	if len(z.pending) > 0 && !z.IsPrimary() {
		return true
	}
	for r, rd := range z.rounds {
		if r >= z.deliver && r >= z.resumeFloor && rd.ordered && !rd.delivered {
			return true
		}
	}
	return false
}

func (z *Instance) armTimer() {
	if z.timerArmed || z.halted {
		return
	}
	z.timerArmed = true
	z.env.SetTimer(sm.TimerID{Instance: z.cfg.Instance, Kind: sm.TimerProgress}, z.cfg.ProgressTimeout)
}

func (z *Instance) resetTimerAfterProgress() {
	z.timerArmed = false
	z.env.CancelTimer(sm.TimerID{Instance: z.cfg.Instance, Kind: sm.TimerProgress})
	if z.outstandingWork() {
		z.armTimer()
	}
}

func (z *Instance) disarmTimer() {
	z.timerArmed = false
	z.env.CancelTimer(sm.TimerID{Instance: z.cfg.Instance, Kind: sm.TimerProgress})
}

// txKey identifies one client transaction for deduplication.
type txKey struct {
	c types.ClientID
	s uint64
}

// requeueVoided returns a voided round's undelivered transactions to the
// pending queue (primaries re-propose them after the resume round).
func (z *Instance) requeueVoided(b *types.Batch, queued map[txKey]struct{}) {
	if b == nil {
		return
	}
	for i := range b.Txns {
		tx := b.Txns[i]
		if tx.IsNoOp() || tx.Seq <= z.lastSeq[tx.Client] {
			continue
		}
		key := txKey{tx.Client, tx.Seq}
		if _, inQueue := queued[key]; inQueue {
			continue // still queued, nothing lost
		}
		if _, tracked := z.pendingSet[key]; tracked {
			z.pending = append(z.pending, tx)
			queued[key] = struct{}{}
		}
	}
}

// takeBatch pops up to max live transactions from the queue front, skipping
// entries already delivered elsewhere (their pendingSet entry is gone).
func (z *Instance) takeBatch(max int) []types.Transaction {
	out := make([]types.Transaction, 0, max)
	i := 0
	for ; i < len(z.pending) && len(out) < max; i++ {
		tx := z.pending[i]
		if _, live := z.pendingSet[txKey{tx.Client, tx.Seq}]; !live || tx.Seq <= z.lastSeq[tx.Client] {
			continue
		}
		out = append(out, tx)
	}
	z.pending = z.pending[i:]
	return out
}
