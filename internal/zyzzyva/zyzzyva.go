// Package zyzzyva implements the Zyzzyva speculative Byzantine commit
// algorithm (Kotla et al.), the fastest primary-backup protocol of the RCC
// paper's evaluation when no failures occur (§V-C).
//
// Normal case: the primary assigns an order to a client batch and
// broadcasts an ORDER-REQ carrying a history hash chain; replicas
// speculatively execute the batch in that order and reply to the client
// directly. A client that collects all n matching speculative responses is
// done (single round trip). With only nf = 2f+1 matching responses the
// client assembles a COMMIT-CERT and broadcasts it; replicas acknowledge
// with LOCAL-COMMIT, making the prefix stable.
//
// Failure handling is expensive (the property Fig. 8 (c,d) shows): missing
// order requests trigger FILL-HOLE round trips, and a faulty primary
// triggers I-HATE-THE-PRIMARY accusations followed by a view change that
// must reconcile divergent speculative histories.
//
// Like the PBFT package, the instance supports RCC mode (Config.FixedPrimary):
// failures are reported through Env.Suspect instead of starting a view
// change, which is how RCC-Z (Fig. 9) is assembled.
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
	// Primary is the initial primary (fixed in RCC mode).
	Primary types.ReplicaID
	// FixedPrimary selects RCC mode: no view changes, failures reported
	// via Env.Suspect.
	FixedPrimary bool
	// Window is the out-of-order proposal window (Zyzzyva supports
	// out-of-order processing, §V-C).
	Window int
	// ProgressTimeout is the failure-detection timeout.
	ProgressTimeout time.Duration
	// BatchSize groups client requests per order request.
	BatchSize int
	// BatchTimeout is the partial-batch deadline: queued transactions
	// that have not filled a batch BatchTimeout after the primary could
	// first have proposed them go out as a partial batch, whatever keeps
	// arriving (sm.BatchDeadline, patient).
	BatchTimeout time.Duration
}

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
}

// round tracks one speculative round.
type round struct {
	view      types.View
	digest    types.Digest
	history   types.Digest // hash chain through this round
	batch     *types.Batch
	ordered   bool // ORDER-REQ received
	committed bool // commit certificate seen (LOCAL-COMMIT sent)
	delivered bool
}

// Instance is one Zyzzyva machine. It implements sm.Instance.
type Instance struct {
	cfg Config
	env sm.Env

	view    types.View
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

	// View change state (standalone mode): I-HATE-THE-PRIMARY accusations
	// per view, then PBFT-style VIEW-CHANGE/NEW-VIEW reconciliation over
	// the speculative histories.
	hates        map[types.View]map[types.ReplicaID]struct{}
	inViewChange bool
	vcVotes      map[types.View]map[types.ReplicaID]*types.ViewChange

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
		hates:      make(map[types.View]map[types.ReplicaID]struct{}),
		vcVotes:    make(map[types.View]map[types.ReplicaID]*types.ViewChange),
	}
}

// Start implements sm.Machine.
func (z *Instance) Start(env sm.Env) { z.env = env }

// View returns the current view.
func (z *Instance) View() types.View { return z.view }

func (z *Instance) primaryOf(v types.View) types.ReplicaID {
	if z.cfg.FixedPrimary {
		return z.cfg.Primary
	}
	n := z.env.Params().N
	return types.ReplicaID((int(z.cfg.Primary) + int(v)) % n)
}

// IsPrimary reports whether the local replica leads the current view.
func (z *Instance) IsPrimary() bool { return z.primaryOf(z.view) == z.env.ID() }

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
	if z.halted || z.inViewChange || !z.IsPrimary() {
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
	or := &types.OrderRequest{View: z.view, Round: r, History: z.orderChain, Digest: d, Batch: batch}
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
	case *types.CommitCert:
		z.onCommitCert(msg)
	case *types.FillHole:
		z.onFillHole(msg)
	case *types.IHatePrimary:
		z.onIHatePrimary(msg)
	case *types.ViewChange:
		z.onViewChange(msg)
	case *types.NewView:
		z.onNewView(from.Replica, msg)
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
// the rest of the queue as a partial batch once BatchTimeout has passed.
func (z *Instance) maybeProposeBatch() {
	for len(z.pending) > 0 && z.inFlight() < z.cfg.Window &&
		(len(z.pending) >= z.cfg.BatchSize || z.batch.Passed(z.env, z.cfg.Instance, z.cfg.BatchTimeout, true)) {
		txns := z.takeBatch(z.cfg.BatchSize)
		if len(txns) == 0 {
			continue // only stale entries were consumed; re-check the queue
		}
		if !z.Propose(&types.Batch{Txns: txns}) {
			// Halted or changing views: return the batch to the queue front.
			z.pending = append(txns, z.pending...)
			return
		}
	}
}

func (z *Instance) onOrderRequest(from types.ReplicaID, m *types.OrderRequest) {
	if m.View != z.view || from != z.primaryOf(m.View) || z.inViewChange {
		return
	}
	if m.Round < z.resumeFloor || m.Batch == nil {
		return
	}
	if m.Batch.Digest() != m.Digest {
		z.suspect(m.Round)
		return
	}
	rd := z.getRound(m.Round)
	if rd.ordered {
		if rd.digest != m.Digest {
			// Equivocation: two order requests for the same round.
			z.suspect(m.Round)
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
			fh := &types.FillHole{Replica: z.env.ID(), View: z.view, From: z.deliver, To: m.Round - 1}
			fh.Inst = z.cfg.Instance
			z.env.Send(z.primaryOf(z.view), fh)
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
			z.suspect(z.deliver)
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
		Instance:    z.cfg.Instance,
		Round:       r,
		View:        rd.view,
		Digest:      rd.digest,
		Batch:       rd.batch,
		Speculative: !rd.committed,
	})
	// Speculative responses go directly to the clients (the defining
	// Zyzzyva optimization): one per client with requests in the batch.
	// The result digest stands for the speculative execution outcome; it
	// is identical across non-faulty replicas because execution is
	// deterministic.
	if rd.batch == nil {
		return
	}
	sent := make(map[types.ClientID]struct{})
	for i := range rd.batch.Txns {
		tx := &rd.batch.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		if _, dup := sent[tx.Client]; dup {
			continue
		}
		sent[tx.Client] = struct{}{}
		sr := &types.SpecResponse{
			Replica: z.env.ID(), View: rd.view, Round: r,
			History: z.history, Result: rd.digest,
			Client: tx.Client, Count: rd.batch.Len(),
		}
		sr.Inst = z.cfg.Instance
		z.env.SendClient(tx.Client, sr)
	}
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

// onCommitCert handles a client-assembled commit certificate: the rounds up
// to it become stable and the replica acknowledges with LOCAL-COMMIT.
func (z *Instance) onCommitCert(m *types.CommitCert) {
	if m.View != z.view {
		return
	}
	rd, ok := z.rounds[m.Round]
	if !ok || !rd.ordered || rd.history != m.History {
		return
	}
	for r := types.Round(1); r <= m.Round; r++ {
		if prd, ok := z.rounds[r]; ok {
			prd.committed = true
		}
	}
	lc := &types.LocalCommit{Replica: z.env.ID(), View: z.view, Round: m.Round, History: m.History, Client: m.Client}
	lc.Inst = z.cfg.Instance
	z.env.SendClient(m.Client, lc)
}

// onFillHole retransmits order requests the sender missed.
func (z *Instance) onFillHole(m *types.FillHole) {
	if !z.IsPrimary() || m.View != z.view {
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

// suspect reports primary failure: Env.Suspect in RCC mode, otherwise an
// I-HATE-THE-PRIMARY accusation that can snowball into a view change.
func (z *Instance) suspect(rnd types.Round) {
	if z.cfg.FixedPrimary {
		z.env.Suspect(z.cfg.Instance, rnd)
		return
	}
	ihp := &types.IHatePrimary{Replica: z.env.ID(), View: z.view}
	ihp.Inst = z.cfg.Instance
	z.env.Broadcast(ihp)
}

func (z *Instance) onIHatePrimary(m *types.IHatePrimary) {
	if z.cfg.FixedPrimary || m.View != z.view {
		return
	}
	s, ok := z.hates[m.View]
	if !ok {
		s = make(map[types.ReplicaID]struct{})
		z.hates[m.View] = s
	}
	s[m.Replica] = struct{}{}
	// f+1 accusations guarantee one honest accuser: join the mutiny so all
	// honest replicas converge on the view change.
	if len(s) >= z.env.Params().FaultDetection() && !z.inViewChange {
		if _, accused := s[z.env.ID()]; !accused {
			ihp := &types.IHatePrimary{Replica: z.env.ID(), View: z.view}
			ihp.Inst = z.cfg.Instance
			z.env.Broadcast(ihp)
		}
		z.startViewChange(z.view + 1)
	}
}

// startViewChange abandons the current view and broadcasts this replica's
// ordered history for reconciliation in the new view.
func (z *Instance) startViewChange(v types.View) {
	if v <= z.view && z.inViewChange {
		return
	}
	z.inViewChange = true
	z.view = v
	z.disarmTimer()
	vc := &types.ViewChange{Replica: z.env.ID(), NewView: v, Prepared: z.StateForRecovery()}
	vc.Inst = z.cfg.Instance
	z.env.Broadcast(vc)
	z.env.SetTimer(sm.TimerID{Instance: z.cfg.Instance, Kind: sm.TimerViewChange}, z.cfg.ProgressTimeout)
}

func (z *Instance) onViewChange(m *types.ViewChange) {
	if z.cfg.FixedPrimary || m.NewView < z.view {
		return
	}
	votes, ok := z.vcVotes[m.NewView]
	if !ok {
		votes = make(map[types.ReplicaID]*types.ViewChange)
		z.vcVotes[m.NewView] = votes
	}
	votes[m.Replica] = m
	if len(votes) < z.env.Params().NF() {
		return
	}
	if z.primaryOf(m.NewView) != z.env.ID() {
		return
	}
	// New primary: reconcile histories. A round is re-proposed when any
	// committed copy exists, or speculatively when f+1 replicas report it
	// (guaranteeing one honest source). Zyzzyva may drop speculative
	// suffixes held by fewer replicas — the cost of speculation.
	counts := make(map[types.Round]map[types.Digest]int)
	byDigest := make(map[types.Digest]types.AcceptedProposal)
	for _, vc := range votes {
		for _, ap := range vc.Prepared {
			if ap.Batch == nil || ap.Batch.Digest() != ap.Digest {
				continue
			}
			c, ok := counts[ap.Round]
			if !ok {
				c = make(map[types.Digest]int)
				counts[ap.Round] = c
			}
			c[ap.Digest]++
			if prev, dup := byDigest[ap.Digest]; !dup || ap.Prepared && !prev.Prepared {
				byDigest[ap.Digest] = ap
			}
		}
	}
	var rounds []types.Round
	for r := range counts {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	var repropose []types.AcceptedProposal
	for _, r := range rounds {
		var pick types.AcceptedProposal
		found := false
		for d, c := range counts[r] {
			ap := byDigest[d]
			if ap.Prepared || c >= z.env.Params().FaultDetection() {
				if !found || ap.Prepared && !pick.Prepared {
					pick, found = ap, true
				}
			}
		}
		if found {
			pick.Round = r
			repropose = append(repropose, pick)
		}
	}
	signers := make([]types.ReplicaID, 0, len(votes))
	for r := range votes {
		signers = append(signers, r)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	nv := &types.NewView{Replica: z.env.ID(), NewView: m.NewView, ViewProofs: signers, Reproposed: repropose}
	nv.Inst = z.cfg.Instance
	z.env.Broadcast(nv)
}

func (z *Instance) onNewView(from types.ReplicaID, m *types.NewView) {
	if z.cfg.FixedPrimary || m.NewView < z.view || from != z.primaryOf(m.NewView) {
		return
	}
	z.view = m.NewView
	z.inViewChange = false
	z.env.CancelTimer(sm.TimerID{Instance: z.cfg.Instance, Kind: sm.TimerViewChange})
	// Adopt the re-proposed suffix. Rounds already delivered locally stay
	// as they are (non-faulty replicas cannot have delivered divergent
	// prefixes: delivery verifies the shared history chain). Reproposed
	// rounds beyond the local frontier are installed as committed; gaps in
	// the re-proposed range were agreed void and are skipped.
	var maxR types.Round
	for i := range m.Reproposed {
		ap := &m.Reproposed[i]
		if ap.Batch == nil || ap.Batch.Digest() != ap.Digest || ap.Round < z.deliver {
			continue
		}
		rd := z.getRound(ap.Round)
		rd.view = m.NewView
		rd.digest = ap.Digest
		rd.batch = ap.Batch
		rd.ordered = true
		rd.committed = true
		rd.history = types.ZeroDigest // recomputed at delivery
		if ap.Round > maxR {
			maxR = ap.Round
		}
		if ap.Round >= z.next {
			z.next = ap.Round + 1
		}
	}
	for r := z.deliver; r <= maxR; r++ {
		rd, ok := z.rounds[r]
		if !ok || !rd.ordered {
			if ok {
				delete(z.rounds, r)
			}
			if r == z.deliver {
				z.deliver = r + 1 // hole agreed dropped by the view change
			}
			continue
		}
		if r == z.deliver && !rd.delivered {
			z.history = historyStep(z.history, rd.digest)
			rd.history = z.history
			rd.delivered = true
			z.deliverRound(r, rd)
			z.deliver = r + 1
		}
	}
	// The new primary continues the chain from the delivered prefix.
	z.orderChain = z.history
	if z.next < z.deliver {
		z.next = z.deliver
	}
	if z.IsPrimary() {
		z.maybeProposeBatch()
	} else if len(z.pending) > 0 {
		z.armTimer()
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
			z.suspect(z.deliver)
		}
	case sm.TimerBatch:
		z.batch.Fired()
		if z.IsPrimary() {
			z.maybeProposeBatch()
		}
	case sm.TimerViewChange:
		if z.inViewChange {
			z.startViewChange(z.view + 1)
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
