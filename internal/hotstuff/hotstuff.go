// Package hotstuff implements the event-based chained HotStuff protocol
// (Yin et al.), the variant the RCC paper evaluates (§V-C).
//
// Each view has one leader. The leader proposes a block extending the
// highest quorum certificate (QC) it knows; replicas vote by sending a
// threshold share to the NEXT view's leader, which combines nf votes into a
// QC and proposes the next block justified by it. A block commits once it
// heads a three-chain of blocks with consecutive views (the chained
// single-phase commit rule).
//
// Two properties matter for the paper's evaluation:
//
//   - Linearity: votes go to one leader, not all-to-all, so communication
//     is O(n) per view.
//   - No out-of-order processing: one block is in flight per view, so
//     throughput is bounded by message delay rather than bandwidth — which
//     is why HotStuff is uncompetitive in Fig. 8 (a–f) but wins among
//     primary-backup protocols when out-of-ordering is disabled everywhere
//     (Fig. 8 (g,h)).
//
// Leaders rotate every view, which doubles as the protocol's built-in
// primary replacement (no separate view-change subprotocol is needed; a
// timeout simply advances the view via NEW-VIEW messages).
package hotstuff

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/sm"
	"repro/internal/types"
)

// Config parameterizes one HotStuff instance.
type Config struct {
	// Instance is the consensus instance this machine serves.
	Instance types.InstanceID
	// ViewTimeout advances the view when no proposal arrives in time.
	ViewTimeout time.Duration
	// BatchSize groups client requests per block.
	BatchSize int
	// BatchTimeout proposes a partial batch after this delay.
	BatchTimeout time.Duration
	// Threshold is the (nf, n) threshold scheme; nil derives a
	// development scheme at Start.
	Threshold *crypto.ThresholdScheme
}

func (c *Config) defaults() {
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 500 * time.Millisecond
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 50 * time.Millisecond
	}
}

var devSecret = []byte("hotstuff-development-threshold-secret")

// block is one node of the block tree.
type block struct {
	digest  types.Digest
	parent  types.Digest
	view    types.View
	round   types.Round
	batch   *types.Batch
	justify types.QuorumCert
}

// Instance is one HotStuff machine. It implements sm.Machine (not
// sm.Instance: HotStuff rotates leaders by design, so it is evaluated
// standalone, not as an RCC substrate).
type Instance struct {
	cfg    Config
	env    sm.Env
	scheme *crypto.ThresholdScheme

	view    types.View
	blocks  map[types.Digest]*block
	highQC  types.QuorumCert
	genesis types.Digest

	// Voting state of the leader of view v+1.
	votes map[types.Digest]map[types.ReplicaID][]byte

	// newview counts NEW-VIEW messages per view for the next leader.
	newviews map[types.View]map[types.ReplicaID]types.QuorumCert

	lastVoted  types.View
	executed   map[types.Digest]bool
	deliverSeq types.Round
	// lastReal is the most recent block carrying client transactions;
	// leaders fill with no-op blocks until it commits (the three-chain
	// rule needs successors).
	lastReal types.Digest

	pending    []types.Transaction
	pendingSet map[txKey]struct{}
	// staleTxns counts delivered transactions since the last queue
	// compaction (amortization counter).
	staleTxns int
	lastSeq   map[types.ClientID]uint64

	proposedInView bool
}

// txKey identifies one client transaction.
type txKey struct {
	c types.ClientID
	s uint64
}

var _ sm.Machine = (*Instance)(nil)

// New creates a HotStuff instance.
func New(cfg Config) *Instance {
	cfg.defaults()
	h := &Instance{
		cfg:        cfg,
		blocks:     make(map[types.Digest]*block),
		votes:      make(map[types.Digest]map[types.ReplicaID][]byte),
		newviews:   make(map[types.View]map[types.ReplicaID]types.QuorumCert),
		executed:   make(map[types.Digest]bool),
		lastSeq:    make(map[types.ClientID]uint64),
		pendingSet: make(map[txKey]struct{}),
		deliverSeq: 1,
	}
	return h
}

// Start implements sm.Machine.
func (h *Instance) Start(env sm.Env) {
	h.env = env
	h.scheme = h.cfg.Threshold
	if h.scheme == nil {
		p := env.Params()
		h.scheme = crypto.NewThresholdScheme(p.N, p.NF(), devSecret)
	}
	// Install the genesis block; the first QC certifies it.
	g := &block{digest: types.Hash([]byte("hotstuff-genesis")), view: 0, round: 0}
	h.genesis = g.digest
	h.blocks[g.digest] = g
	h.highQC = types.QuorumCert{View: 0, Round: 0, Block: g.digest}
	h.view = 1
	h.armViewTimer()
}

// View returns the current view.
func (h *Instance) View() types.View { return h.view }

// LeaderOf returns the leader of view v (round-robin).
func (h *Instance) LeaderOf(v types.View) types.ReplicaID {
	return types.ReplicaID(uint64(v) % uint64(h.env.Params().N))
}

// IsLeader reports whether the local replica leads the current view.
func (h *Instance) IsLeader() bool { return h.LeaderOf(h.view) == h.env.ID() }

// Pending returns the number of queued client transactions.
func (h *Instance) Pending() int { return len(h.pending) }

// blockMsg is the byte form votes sign.
func blockMsg(inst types.InstanceID, v types.View, d types.Digest) []byte {
	buf := make([]byte, 0, 48)
	buf = append(buf, byte(inst>>8), byte(inst))
	buf = append(buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	return append(buf, d[:]...)
}

// OnMessage implements sm.Machine.
func (h *Instance) OnMessage(from sm.Source, m types.Message) {
	switch msg := m.(type) {
	case *types.ClientRequest:
		h.onClientRequest(msg)
	case *types.HSProposal:
		h.onProposal(from.Replica, msg)
	case *types.HSVote:
		h.onVote(msg)
	case *types.HSNewView:
		h.onNewView(msg)
	}
}

func (h *Instance) onClientRequest(m *types.ClientRequest) {
	queued := false
	for i := range m.Txns {
		tx := &m.Txns[i]
		if tx.IsNoOp() || tx.Seq <= h.lastSeq[tx.Client] {
			continue
		}
		key := txKey{tx.Client, tx.Seq}
		if _, dup := h.pendingSet[key]; dup {
			continue // queued or already carried by a chain block
		}
		h.pendingSet[key] = struct{}{}
		h.pending = append(h.pending, *tx)
		queued = true
	}
	if queued {
		h.maybePropose()
	}
}

// maybePropose lets the current leader propose one block per view, skipping
// transactions already carried by an uncommitted ancestor of the chain it
// would extend (transactions on abandoned forks become proposable again).
func (h *Instance) maybePropose() {
	if !h.IsLeader() || h.proposedInView {
		return
	}
	busy := h.uncommittedChainTxns()
	var txns []types.Transaction
	for i := range h.pending {
		key := txKey{h.pending[i].Client, h.pending[i].Seq}
		if _, live := h.pendingSet[key]; !live || h.pending[i].Seq <= h.lastSeq[h.pending[i].Client] {
			continue // delivered elsewhere; awaits compaction
		}
		if _, inFlight := busy[key]; inFlight {
			continue
		}
		txns = append(txns, h.pending[i])
		if len(txns) == h.cfg.BatchSize {
			break
		}
	}
	if len(txns) == 0 {
		// Nothing new to propose. If real blocks still await their
		// three-chain successors, drive the chain with a no-op block;
		// otherwise stay idle.
		if h.needChainProgress() {
			h.propose(types.NoOpBatch())
		}
		return
	}
	h.propose(&types.Batch{Txns: txns})
}

// uncommittedChainTxns collects the transactions of every uncommitted
// ancestor of the high QC's block — the in-flight suffix a new proposal
// must not duplicate.
func (h *Instance) uncommittedChainTxns() map[txKey]struct{} {
	out := make(map[txKey]struct{})
	cur, ok := h.blocks[h.highQC.Block]
	for ok && cur.digest != h.genesis && !h.executed[cur.digest] {
		if cur.batch != nil {
			for i := range cur.batch.Txns {
				if !cur.batch.Txns[i].IsNoOp() {
					out[txKey{cur.batch.Txns[i].Client, cur.batch.Txns[i].Seq}] = struct{}{}
				}
			}
		}
		cur, ok = h.blocks[cur.parent]
	}
	return out
}

func (h *Instance) propose(batch *types.Batch) {
	parent := h.highQC.Block
	pb := h.blocks[parent]
	blk := &block{
		parent:  parent,
		view:    h.view,
		round:   pb.round + 1,
		batch:   batch,
		justify: h.highQC,
	}
	blk.digest = blockDigest(blk)
	h.proposedInView = true
	if !batch.IsNoOp() {
		h.lastReal = blk.digest
	}
	p := &types.HSProposal{
		Replica: h.env.ID(), View: h.view, Round: blk.round,
		Parent: parent, Digest: blk.digest, Batch: batch, Justify: h.highQC,
	}
	p.Inst = h.cfg.Instance
	h.env.Broadcast(p)
}

// blockDigest computes the digest identifying a block.
func blockDigest(b *block) types.Digest {
	buf := make([]byte, 0, 128)
	buf = append(buf, b.parent[:]...)
	buf = append(buf, byte(b.view>>56), byte(b.view>>48), byte(b.view>>40), byte(b.view>>32),
		byte(b.view>>24), byte(b.view>>16), byte(b.view>>8), byte(b.view))
	if b.batch != nil {
		d := b.batch.Digest()
		buf = append(buf, d[:]...)
	}
	return types.Hash(buf)
}

func (h *Instance) onProposal(from types.ReplicaID, m *types.HSProposal) {
	if m.View < h.view || from != h.LeaderOf(m.View) || m.Batch == nil {
		return
	}
	parent, ok := h.blocks[m.Parent]
	if !ok {
		return // unknown parent (lost block); the view timer recovers
	}
	blk := &block{
		parent:  m.Parent,
		view:    m.View,
		round:   parent.round + 1,
		batch:   m.Batch,
		justify: m.Justify,
	}
	blk.digest = blockDigest(blk)
	if blk.digest != m.Digest {
		return
	}
	if _, dup := h.blocks[blk.digest]; !dup {
		h.blocks[blk.digest] = blk
	}
	if !m.Batch.IsNoOp() {
		h.lastReal = blk.digest
	}
	h.updateHighQC(m.Justify)

	// SafeNode rule (simplified for the chained single-phase variant):
	// vote when the proposal extends the high QC's block and the view is
	// not older than the last vote.
	if m.View <= h.lastVoted || m.Parent != h.highQC.Block {
		h.advanceTo(m.View)
		h.tryCommit(blk)
		return
	}
	h.lastVoted = m.View
	share := h.scheme.Share(crypto.PartyID(h.env.ID()), blockMsg(h.cfg.Instance, m.View, blk.digest))
	vote := &types.HSVote{Replica: h.env.ID(), View: m.View, Round: blk.round, Block: blk.digest, Share: share}
	vote.Inst = h.cfg.Instance
	h.env.Send(h.LeaderOf(m.View+1), vote)

	h.advanceTo(m.View)
	h.tryCommit(blk)
	// The next view starts when the view-(v+1) leader proposes with the
	// QC it combines from our votes; the view timer guards against a
	// silent next leader. Entering it eagerly here would let the next
	// leader propose before holding the QC, forking the chain.
}

// onVote runs at the leader of view m.View+1: combine nf votes into a QC.
func (h *Instance) onVote(m *types.HSVote) {
	if h.LeaderOf(m.View+1) != h.env.ID() {
		return
	}
	msg := blockMsg(h.cfg.Instance, m.View, m.Block)
	if !h.scheme.VerifyShare(crypto.PartyID(m.Replica), msg, m.Share) {
		return
	}
	vs, ok := h.votes[m.Block]
	if !ok {
		vs = make(map[types.ReplicaID][]byte)
		h.votes[m.Block] = vs
	}
	vs[m.Replica] = m.Share
	if len(vs) < h.env.Params().NF() {
		return
	}
	signers := make([]types.ReplicaID, 0, len(vs))
	for r := range vs {
		signers = append(signers, r)
	}
	qc := types.QuorumCert{View: m.View, Round: m.Round, Block: m.Block, Signers: signers}
	h.updateHighQC(qc)
	delete(h.votes, m.Block)
	h.enterView(m.View + 1)
	h.maybePropose()
	if h.IsLeader() && !h.proposedInView {
		// Nothing pending: drive the chain forward with a no-op block so
		// earlier blocks can commit (the chained rule needs successors).
		if h.needChainProgress() {
			h.propose(types.NoOpBatch())
			h.proposedInView = true
		}
	}
}

// needChainProgress reports whether a real (non-filler) block still awaits
// the successor blocks the three-chain commit rule requires.
func (h *Instance) needChainProgress() bool {
	return !h.lastReal.IsZero() && !h.executed[h.lastReal]
}

func (h *Instance) updateHighQC(qc types.QuorumCert) {
	if qc.View >= h.highQC.View && qc.Block != h.highQC.Block {
		if _, known := h.blocks[qc.Block]; known {
			h.highQC = qc
		}
	} else if qc.View > h.highQC.View {
		if _, known := h.blocks[qc.Block]; known {
			h.highQC = qc
		}
	}
}

// tryCommit applies the chained three-chain commit rule: when blocks
// b” ← b' ← b have consecutive views and b carries a QC for b', b”
// commits (and with it its whole uncommitted ancestry).
func (h *Instance) tryCommit(b *block) {
	b1, ok := h.blocks[b.justify.Block]
	if !ok {
		return
	}
	b2, ok := h.blocks[b1.justify.Block]
	if !ok {
		return
	}
	if b1.view+1 != b.view || b2.view+1 != b1.view {
		return // chain not consecutive: no commit yet
	}
	h.commitAncestry(b2)
}

// commitAncestry executes b and every uncommitted ancestor, oldest first.
func (h *Instance) commitAncestry(b *block) {
	if b.digest == h.genesis || h.executed[b.digest] {
		return
	}
	var chain []*block
	for cur := b; cur != nil && cur.digest != h.genesis && !h.executed[cur.digest]; {
		chain = append(chain, cur)
		next, ok := h.blocks[cur.parent]
		if !ok {
			break
		}
		cur = next
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		h.executed[blk.digest] = true
		h.markDelivered(blk.batch)
		// The decision names the batch, not the tree node: a ledger commits
		// to the digest of the batch it journals (blk.digest also binds the
		// parent and the view).
		h.env.Deliver(sm.Decision{
			Instance: h.cfg.Instance,
			Round:    h.deliverSeq,
			View:     blk.view,
			Digest:   blk.batch.Digest(),
			Batch:    blk.batch,
			Signers:  blk.justify.Signers,
		})
		h.deliverSeq++
	}
}

func (h *Instance) markDelivered(b *types.Batch) {
	if b == nil {
		return
	}
	for i := range b.Txns {
		tx := &b.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		delete(h.pendingSet, txKey{tx.Client, tx.Seq})
		if tx.Seq > h.lastSeq[tx.Client] {
			h.lastSeq[tx.Client] = tx.Seq
		}
	}
	// Compact the queue only when at least half of it is stale: a scan per
	// delivered batch is O(backlog) and melts down under open-loop
	// overload; amortized compaction is O(1) per transaction.
	h.staleTxns += b.Len()
	if len(h.pending) == 0 || 2*h.staleTxns < len(h.pending) {
		return
	}
	h.staleTxns = 0
	kept := h.pending[:0]
	for i := range h.pending {
		tx := &h.pending[i]
		if _, live := h.pendingSet[txKey{tx.Client, tx.Seq}]; live && tx.Seq > h.lastSeq[tx.Client] {
			kept = append(kept, *tx)
		}
	}
	h.pending = kept
}

// advanceTo moves the local view forward to at least v.
func (h *Instance) advanceTo(v types.View) {
	if v > h.view {
		h.view = v
		h.proposedInView = false
		h.armViewTimer()
	}
}

// enterView enters view v (from a QC or proposal for view v−1).
func (h *Instance) enterView(v types.View) {
	if v <= h.view {
		return
	}
	h.view = v
	h.proposedInView = false
	h.armViewTimer()
	h.maybePropose()
}

// onNewView collects NEW-VIEW messages (timeout path): the new leader
// adopts the highest reported QC and proposes on it.
func (h *Instance) onNewView(m *types.HSNewView) {
	if h.LeaderOf(m.View) != h.env.ID() {
		return
	}
	nv, ok := h.newviews[m.View]
	if !ok {
		nv = make(map[types.ReplicaID]types.QuorumCert)
		h.newviews[m.View] = nv
	}
	nv[m.Replica] = m.HighQC
	h.updateHighQC(m.HighQC)
	if len(nv) >= h.env.Params().NF() && m.View >= h.view {
		h.advanceTo(m.View)
		if len(h.pending) > 0 {
			h.maybePropose()
		} else if h.needChainProgress() {
			h.propose(types.NoOpBatch())
		}
	}
}

// OnTimer implements sm.Machine.
func (h *Instance) OnTimer(id sm.TimerID) {
	switch id.Kind {
	case sm.TimerProgress:
		// View timeout: move to the next view and tell its leader our
		// high QC (the pacemaker).
		h.view++
		h.proposedInView = false
		nv := &types.HSNewView{Replica: h.env.ID(), View: h.view, HighQC: h.highQC}
		nv.Inst = h.cfg.Instance
		h.env.Send(h.LeaderOf(h.view), nv)
		h.armViewTimer()
	case sm.TimerBatch:
		h.maybePropose()
	}
}

func (h *Instance) armViewTimer() {
	h.env.SetTimer(sm.TimerID{Instance: h.cfg.Instance, Kind: sm.TimerProgress}, h.cfg.ViewTimeout)
}
