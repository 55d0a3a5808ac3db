package pbft

// Checkpoint-based state transfer (sm.StateSyncable): serialization and
// installation of the delivered frontier. A wiped or long-partitioned
// replica cannot use checkpoint catch-up — the bodies peers attach only
// reach back to their last stable checkpoint, not to genesis — so the
// statesync subsystem ships it the ledger itself and then installs the
// matching machine frontier through InstallSyncPoint.
//
// Two serializations share one wire format:
//
//   - SyncPoint() captures the live frontier, including the per-client
//     lastSeq dedup map. In standalone mode lastSeq is a pure function of
//     the delivered prefix, so replicas at the same frontier serialize
//     identically and the f+1 byte-identical offer quorum still forms.
//   - BoundarySyncPointAt(r) captures the frontier as it stood when
//     delivery crossed round r — the form attested at checkpoint
//     boundaries. Quorum-timing-dependent fields (view, stableCkp,
//     lastSeq — which in RCC mode advances at inner delivery, ahead of
//     the wave frontier) are omitted; the composite dedup state travels
//     at the RCC level instead and is pushed back down through
//     MergeDeliveredSeqs at install.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/types"
)

// syncPointV1 tags the PBFT frontier serialization.
const syncPointV1 = 1

// syncPointLen is the fixed prefix size: version, view, deliver, stableCkp,
// chain digest. A u32 count and count (client u32, seq u64) pairs sorted by
// client follow it.
const syncPointLen = 1 + 8 + 8 + 8 + 32

// SyncPoint implements sm.StateSyncable: the delivered frontier, the
// checkpoint chain value it carries, the view, and the per-client dedup
// map — everything a peer needs to resume participation exactly where this
// replica stands without re-proposing delivered requests. Deterministic:
// replicas with identical frontiers serialize identically.
func (p *Instance) SyncPoint() []byte {
	// Only clients with a delivered seq appear: a record may exist for a
	// client whose requests are merely queued, or whose floor came from
	// MergeDeliveredSeqs.
	delivered := make([]*clientState, 0, len(p.clients))
	for _, cs := range p.clients {
		if cs.lastSeq > 0 {
			delivered = append(delivered, cs)
		}
	}
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].id < delivered[j].id })
	buf := make([]byte, 0, syncPointLen+4+12*len(delivered))
	buf = append(buf, syncPointV1)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.view))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.deliver))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.stableCkp))
	buf = append(buf, p.chain[:]...)
	// The dedup map: a u32 count plus (client u32, seq u64) pairs sorted by
	// client.
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(delivered)))
	for _, cs := range delivered {
		buf = binary.BigEndian.AppendUint32(buf, uint32(cs.id))
		buf = binary.BigEndian.AppendUint64(buf, cs.lastSeq)
	}
	return buf
}

// syncPoint is a parsed sync point.
type syncPoint struct {
	view            types.View
	deliver, stable types.Round
	chain           types.Digest
	seqs            map[types.ClientID]uint64
}

// parseSyncPoint parses what SyncPoint and BoundarySyncPointAt write. The
// dedup map's count is bounded by the remaining bytes, so a hostile count
// cannot force a huge allocation.
func parseSyncPoint(data []byte) (*syncPoint, error) {
	rd := types.NewReader(data)
	if rd.U8() != syncPointV1 {
		return nil, fmt.Errorf("pbft: malformed sync point (%d bytes)", len(data))
	}
	sp := &syncPoint{
		view:    types.View(rd.U64()),
		deliver: types.Round(rd.U64()),
		stable:  types.Round(rd.U64()),
		chain:   rd.Digest(),
	}
	n := rd.Count(12)
	sp.seqs = make(map[types.ClientID]uint64, n)
	for range n {
		c := types.ClientID(rd.U32())
		sp.seqs[c] = rd.U64()
	}
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("pbft: sync point: %w", err)
	}
	return sp, nil
}

// ValidateSyncPoint implements sm.StateSyncable: format check only, no
// mutation.
func (p *Instance) ValidateSyncPoint(data []byte) error {
	_, err := parseSyncPoint(data)
	return err
}

// InstallSyncPoint implements sm.StateSyncable: jump the delivered frontier
// to an attested install point. Rounds below it were installed through the
// ledger; rounds at or above it keep whatever votes and commits accumulated
// while the transfer ran and deliver in order from here. Advisory fields
// (view, stableCkp, dedup map) max-merge: a boundary-attested point carries
// conservative zeros for them, and an install must never regress state the
// replica accumulated on its own.
func (p *Instance) InstallSyncPoint(data []byte) error {
	sp, err := parseSyncPoint(data)
	if err != nil {
		return err
	}
	// The blob's dedup map is the SOURCE's delivery-derived lastSeq, a pure
	// function of the frontier being installed — it belongs in lastSeq (the
	// serialized map), keeping installed replicas byte-identical with
	// organic ones. Merged even when the frontier brings nothing new: it
	// only ever prevents re-proposing delivered requests.
	for c, s := range sp.seqs {
		cs := p.client(nil, c)
		cs.lastSeq = max(cs.lastSeq, s)
		cs.slide()
	}

	deliver := sp.deliver
	if deliver <= p.deliver {
		return nil // already at or past the install point
	}
	if sp.view > p.view {
		p.view = sp.view
		p.inViewChange = false
	}
	p.deliver = deliver
	if p.next < deliver {
		p.next = deliver
	}
	// Everything below the frontier is settled elsewhere; refuse late
	// traffic for it exactly like a post-recovery resume does.
	if deliver > p.resumeFloor {
		p.resumeFloor = deliver
	}
	if sp.stable > p.stableCkp {
		p.stableCkp = sp.stable
	}
	p.chain = sp.chain
	p.chainAt = map[types.Round]types.Digest{deliver - 1: sp.chain}
	for r := range p.rounds {
		if r < deliver {
			delete(p.rounds, r)
		}
	}
	for r := range p.ckpVotes {
		if r < deliver {
			delete(p.ckpVotes, r)
			delete(p.ckpBodies, r)
		}
	}
	p.halted = false
	// Rounds decided while the transfer ran may already be committed in
	// p.rounds: deliver them now that the frontier reaches them.
	p.tryDeliver()
	return nil
}

// BoundarySyncPointAt serializes the frontier as it stood when delivery
// crossed round frontier (all rounds below delivered or voided): the form
// every correct replica serializes byte-identically at a checkpoint
// boundary regardless of how far its live state has run ahead. Returns nil
// when the chain value at the boundary is no longer retained (GC'd past);
// offers then carry no boundary frontier for that checkpoint.
func (p *Instance) BoundarySyncPointAt(frontier types.Round) []byte {
	var chain types.Digest
	if frontier > 1 {
		c, ok := p.chainAt[frontier-1]
		if !ok {
			return nil
		}
		chain = c
	}
	buf := make([]byte, 0, syncPointLen+4)
	buf = append(buf, syncPointV1)
	buf = binary.BigEndian.AppendUint64(buf, 0) // view: quorum-timing dependent
	buf = binary.BigEndian.AppendUint64(buf, uint64(frontier))
	buf = binary.BigEndian.AppendUint64(buf, 0) // stableCkp: quorum-timing dependent
	buf = append(buf, chain[:]...)
	return binary.BigEndian.AppendUint32(buf, 0) // dedup map travels at the RCC level
}

// MergeDeliveredSeqs folds externally established per-client delivered
// sequence numbers into the dedup floor (max-merge). RCC pushes its
// composite delivery frontier down through this after a state-transfer
// install, so a synced replica that becomes primary does not re-propose
// delivered requests on client retransmit. The floors land in syncSeq, NOT
// lastSeq: they cover deliveries from OTHER instances, so folding them into
// the serialized map would make this instance's sync point differ from
// organically-progressed replicas at the same frontier.
func (p *Instance) MergeDeliveredSeqs(seqs map[types.ClientID]uint64) {
	for c, s := range seqs {
		cs := p.client(nil, c)
		cs.syncSeq = max(cs.syncSeq, s)
		cs.slide()
	}
}

// reportSyncGap asks the runtime for a state transfer when in-protocol
// catch-up cannot bridge a certified gap (runtimes without state transfer
// ignore the report).
func (p *Instance) reportSyncGap() { p.env.RequestStateSync() }
