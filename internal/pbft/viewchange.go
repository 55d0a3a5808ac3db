package pbft

import (
	"sort"

	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

// View changes (§III-A "Primary replacement", standalone mode only): when a
// replica detects failure of the primary of view v it broadcasts a
// VIEW-CHANGE for v+1 carrying its prepared proposals. The primary of view
// v+1 collects nf such messages, computes the proposals that must be
// re-proposed (for every round, the prepared proposal with the highest view,
// or a no-op when no replica prepared anything), and broadcasts NEW-VIEW.
// Replicas validate the NEW-VIEW against the same rule and resume the
// commit phases in the new view.
//
// Under RCC, view changes are disabled (Config.FixedPrimary): detectable
// failures run the wait-free recovery protocol of internal/rcc instead.

// ForceViewChange starts a view change toward the next view. RCC uses it to
// replace a coordinating-consensus leader that fails to propose a pending
// stop operation in time. A no-op while a view change is already running —
// the view-change timer escalates stuck changes on its own.
func (p *Instance) ForceViewChange() {
	if !p.inViewChange {
		p.startViewChange(p.view + 1)
	}
}

// startViewChange moves the replica into the view-change sub-protocol for
// view nv.
func (p *Instance) startViewChange(nv types.View) {
	if p.cfg.FixedPrimary || nv <= p.view {
		return
	}
	p.inViewChange = true
	p.view = nv
	p.disarmTimer()
	p.env.Logf("pbft[%d]: view change -> %d (primary %d)", p.cfg.Instance, nv, p.primaryOf(nv))
	p.emit(flight.KViewChangeStart, nv, uint64(p.deliver), 0)

	vc := &types.ViewChange{
		Replica:   p.env.ID(),
		NewView:   nv,
		StableCkp: p.stableCkp,
		Prepared:  p.preparedProposals(),
	}
	vc.Inst = p.cfg.Instance
	p.env.Broadcast(vc)
	// If the new primary stalls, move to the next view, backing off
	// exponentially so drifting replicas get time to re-synchronize.
	if p.vcBackoff <= 0 {
		p.vcBackoff = 2 * p.cfg.ProgressTimeout
	} else if p.vcBackoff < 16*p.cfg.ProgressTimeout {
		p.vcBackoff *= 2
	}
	p.env.SetTimer(sm.TimerID{Instance: p.cfg.Instance, Kind: sm.TimerViewChange}, p.vcBackoff)
}

// preparedProposals returns, for every round above the stable checkpoint,
// the locally prepared (or committed) proposal.
func (p *Instance) preparedProposals() []types.AcceptedProposal {
	out := make([]types.AcceptedProposal, 0, len(p.rounds))
	for r, rd := range p.rounds {
		if r <= p.stableCkp || rd.batch == nil {
			continue
		}
		if rd.prepared || rd.committed {
			out = append(out, types.AcceptedProposal{
				Round: r, View: rd.view, Digest: rd.digest,
				Batch: rd.batch, Prepared: true,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

func (p *Instance) onViewChange(m *types.ViewChange) {
	if p.cfg.FixedPrimary || m.NewView < p.view {
		return
	}
	views, ok := p.vcVotes[m.NewView]
	if !ok {
		views = make(map[types.ReplicaID]*types.ViewChange)
		p.vcVotes[m.NewView] = views
	}
	views[m.Replica] = m
	if p.vcAnnounced == nil {
		p.vcAnnounced = make(map[types.ReplicaID]types.View)
	}
	if m.NewView > p.vcAnnounced[m.Replica] {
		p.vcAnnounced[m.Replica] = m.NewView
	}

	// View synchronization: replicas time out independently, so their
	// target views drift apart and naive per-view vote counting never
	// accumulates a quorum. The standard rule re-synchronizes them: once
	// f+1 distinct replicas announce views above ours (one of them is
	// honest), jump to the SMALLEST announced view above ours, so all
	// honest replicas converge on the same target.
	if m.NewView > p.view {
		count := 0
		minAbove := m.NewView
		for _, v := range p.vcAnnounced {
			if v > p.view {
				count++
				if v < minAbove {
					minAbove = v
				}
			}
		}
		if count >= p.env.Params().FaultDetection() {
			p.startViewChange(minAbove)
		}
	}

	// The new primary assembles NEW-VIEW from nf view-change messages.
	if p.primaryOf(m.NewView) == p.env.ID() && len(views) >= p.env.Params().NF() && p.view == m.NewView && p.inViewChange {
		p.sendNewView(m.NewView, views)
	}
}

// sendNewView computes and broadcasts the NEW-VIEW message.
func (p *Instance) sendNewView(nv types.View, votes map[types.ReplicaID]*types.ViewChange) {
	best := make(map[types.Round]types.AcceptedProposal)
	var maxRound types.Round
	for _, vc := range votes {
		for _, ap := range vc.Prepared {
			if ap.Batch == nil || ap.Batch.Digest() != ap.Digest {
				continue
			}
			cur, ok := best[ap.Round]
			if !ok || ap.View > cur.View {
				best[ap.Round] = ap
			}
			if ap.Round > maxRound {
				maxRound = ap.Round
			}
		}
	}
	// Fill gaps with no-ops so rounds stay dense.
	re := make([]types.AcceptedProposal, 0, len(best))
	for r := p.stableCkp + 1; r <= maxRound; r++ {
		ap, ok := best[r]
		if !ok {
			b := types.NoOpBatch()
			ap = types.AcceptedProposal{Round: r, View: nv, Digest: b.Digest(), Batch: b}
		}
		ap.View = nv
		re = append(re, ap)
	}
	signers := make([]types.ReplicaID, 0, len(votes))
	for r := range votes {
		signers = append(signers, r)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	nvm := &types.NewView{Replica: p.env.ID(), NewView: nv, ViewProofs: signers, Reproposed: re}
	nvm.Inst = p.cfg.Instance
	p.env.Broadcast(nvm)
}

func (p *Instance) onNewView(from types.ReplicaID, m *types.NewView) {
	if p.cfg.FixedPrimary || m.NewView < p.view || from != p.primaryOf(m.NewView) {
		return
	}
	if len(m.ViewProofs) < p.env.Params().NF() {
		return
	}
	// Adopt the new view.
	p.env.Logf("pbft[%d]: new view %d installed (%d reproposals)", p.cfg.Instance, m.NewView, len(m.Reproposed))
	p.view = m.NewView
	p.inViewChange = false
	p.vcBackoff = 0
	p.env.CancelTimer(sm.TimerID{Instance: p.cfg.Instance, Kind: sm.TimerViewChange})

	var maxRound types.Round
	for i := range m.Reproposed {
		ap := &m.Reproposed[i]
		if ap.Batch == nil || ap.Batch.Digest() != ap.Digest {
			continue
		}
		if ap.Round > maxRound {
			maxRound = ap.Round
		}
		rd := p.getRound(ap.Round)
		if rd.committed {
			continue
		}
		// Treat the re-proposal as a preprepare in the new view and
		// restart the vote phases.
		rd.view = m.NewView
		rd.digest = ap.Digest
		rd.batch = ap.Batch
		rd.preprepared = true
		p.highPrep = max(p.highPrep, ap.Round)
		rd.prepared = false
		rd.sentPrepare = true
		rd.sentCommit = false
		rd.prepares = tally{}
		rd.commits = tally{}
		p.env.Broadcast(types.NewPrepare(p.cfg.Instance, p.env.ID(), m.NewView, ap.Round, ap.Digest))
		p.tallyPrepare(ap.Round, rd, from, ap.Digest)
	}
	if maxRound >= p.next {
		p.next = maxRound + 1
	}
	p.armTimer()
	// The new primary resumes proposing queued requests.
	if p.IsPrimary() {
		p.maybeProposeBatch()
	}
	if met := p.cfg.Metrics; met != nil {
		met.ViewChanges.Inc()
	}
	p.emit(flight.KViewChangeDone, m.NewView, uint64(p.deliver), uint64(len(m.Reproposed)))
	if p.viewInstalled != nil {
		p.viewInstalled(m.NewView)
	}
}

// SetViewInstalledHook registers a callback invoked after every adopted
// NEW-VIEW.
func (p *Instance) SetViewInstalledHook(f func(types.View)) { p.viewInstalled = f }
