package pbft

import (
	"encoding/binary"

	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

// Checkpoints (§III-A "Recovery"): replicas periodically exchange state
// digests; nf matching digests form a stable checkpoint, which both
// garbage-collects old rounds and lets in-the-dark replicas (replicas a
// faulty primary kept out of up to f proposals, Assumption A1) learn the
// accepted proposals without the primary's help.
//
// The checkpoint digest is an incremental hash chain over delivered
// proposal digests: chain_r = H(chain_{r-1} ‖ digest_r). A quorum on
// chain_r therefore certifies the entire delivered prefix; a lagging
// replica adopts missing batches from any checkpoint body whose contents
// extend its local chain to the certified value.

// chainStep extends a checkpoint chain by one round digest.
func chainStep(prev, d types.Digest) types.Digest {
	buf := make([]byte, 0, 64)
	buf = append(buf, prev[:]...)
	buf = append(buf, d[:]...)
	return types.Hash(buf)
}

// voidRangeDigest is the chain contribution of the agreed-void round range
// [from, to). All replicas apply identical ranges (they are derived from a
// consensus decision on stop(i;E)), so one step per range keeps the chains
// consistent while costing O(1) regardless of the range width.
func voidRangeDigest(from, to types.Round) types.Digest {
	var buf [17]byte
	buf[0] = 0xFD // tag distinguishing range steps from round digests
	binary.BigEndian.PutUint64(buf[1:], uint64(from))
	binary.BigEndian.PutUint64(buf[9:], uint64(to))
	return types.Hash(buf[:])
}

// emitCheckpoint broadcasts this replica's checkpoint at delivered round r,
// attaching the proposals since the previous stable checkpoint so lagging
// replicas can catch up.
func (p *Instance) emitCheckpoint(r types.Round) {
	chain, ok := p.chainAt[r]
	if !ok {
		return // r not delivered locally
	}
	props := make([]types.AcceptedProposal, 0, int(r-p.stableCkp))
	for q := p.stableCkp + 1; q <= r; q++ {
		if rd, ok := p.rounds[q]; ok && rd.committed && rd.batch != nil {
			props = append(props, types.AcceptedProposal{
				Round: q, View: rd.view, Digest: rd.digest, Batch: rd.batch,
			})
		}
	}
	ckp := &types.Checkpoint{
		Replica:   p.env.ID(),
		Round:     r,
		State:     chain,
		Proposals: props,
	}
	ckp.Inst = p.cfg.Instance
	p.env.Broadcast(ckp)
}

// ForceCheckpoint triggers an out-of-schedule checkpoint exchange at the
// highest delivered round. RCC uses this for its dynamic per-need
// checkpoints (§III-D).
func (p *Instance) ForceCheckpoint() {
	if p.deliver > 1 {
		p.emitCheckpoint(p.deliver - 1)
	}
}

func (p *Instance) onCheckpoint(m *types.Checkpoint) {
	votes, ok := p.ckpVotes[m.Round]
	if !ok {
		votes = &tally{}
		p.ckpVotes[m.Round] = votes
	}
	n := votes.add(m.State, m.Replica, p.env.Params().N)
	bodies, ok := p.ckpBodies[m.Round]
	if !ok {
		bodies = make(map[types.ReplicaID][]types.AcceptedProposal)
		p.ckpBodies[m.Round] = bodies
	}
	if len(m.Proposals) > 0 {
		bodies[m.Replica] = m.Proposals
	}
	if m.Round <= p.stableCkp {
		return
	}
	// f+1 matching digests form a weak certificate: at least one honest
	// replica vouches for the prefix, which is enough for a lagging
	// replica to adopt the contents (PBFT's state-transfer rule).
	if n >= p.env.Params().FaultDetection() {
		p.adoptFromCheckpoint(m.Round, m.State)
		if _, bridged := p.chainAt[m.Round]; !bridged && m.Round >= p.deliver {
			// A certified prefix this replica cannot reach from any body
			// it holds: the gap predates what checkpoints carry (wiped
			// disk, long partition). Only a ledger-level state transfer
			// can close it.
			p.reportSyncGap()
		}
	}
	// nf matching digests make the checkpoint stable (garbage collection).
	if n >= p.env.Params().NF() {
		if chain, ok := p.chainAt[m.Round]; ok && chain == m.State {
			p.stableCkp = m.Round
			p.gcBelow(m.Round)
		}
	}
}

// adoptFromCheckpoint lets an in-the-dark replica adopt the proposals it is
// missing below certified round r. Adoption is all-or-nothing per body: the
// candidate contents must extend the local chain exactly to the certified
// digest.
func (p *Instance) adoptFromCheckpoint(r types.Round, state types.Digest) {
	if _, ok := p.chainAt[r]; ok {
		return // already delivered through r
	}
	for _, props := range p.ckpBodies[r] {
		byRound := make(map[types.Round]*types.AcceptedProposal, len(props))
		valid := true
		for i := range props {
			ap := &props[i]
			if ap.Batch == nil || ap.Batch.Digest() != ap.Digest {
				valid = false
				break
			}
			byRound[ap.Round] = ap
		}
		if !valid {
			continue
		}
		// Walk the chain forward from the local delivery frontier.
		cur := p.chain
		complete := true
		for q := p.deliver; q <= r; q++ {
			var d types.Digest
			if rd, ok := p.rounds[q]; ok && rd.committed {
				d = rd.digest
			} else if ap, ok := byRound[q]; ok {
				d = ap.Digest
			} else {
				complete = false
				break
			}
			cur = chainStep(cur, d)
		}
		if !complete || cur != state {
			continue
		}
		// Certified: adopt every missing round.
		p.emit(flight.KCheckpointAdopt, p.view, uint64(r), 0)
		for q := p.deliver; q <= r; q++ {
			if rd, ok := p.rounds[q]; ok && rd.committed {
				continue
			}
			ap := byRound[q]
			p.AdoptDecision(sm.Decision{
				Instance: p.cfg.Instance,
				Round:    ap.Round,
				View:     ap.View,
				Digest:   ap.Digest,
				Batch:    ap.Batch,
			})
		}
		p.tryDeliver()
		return
	}
}

// gcBelow drops per-round state at or below the stable checkpoint.
func (p *Instance) gcBelow(r types.Round) {
	for q, rd := range p.rounds {
		if q <= r && rd.delivered {
			delete(p.rounds, q)
		}
	}
	for q := range p.chainAt {
		if q < r {
			delete(p.chainAt, q)
		}
	}
	for q := range p.ckpVotes {
		if q < r {
			delete(p.ckpVotes, q)
			delete(p.ckpBodies, q)
		}
	}
}

// StableCheckpoint returns the round of the latest stable checkpoint.
func (p *Instance) StableCheckpoint() types.Round { return p.stableCkp }
