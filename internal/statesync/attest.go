package statesync

// Checkpoint-boundary attestation: the fix for the known blocker that f+1
// byte-identical offers only form on quiescent clusters.
//
// The legacy offer tuple includes the LIVE ledger head and the machine's
// live frontier, both of which advance with every decision — under
// sustained load no two replicas serve identical bytes at the same instant
// and a wiped replica can never pick a target. Checkpoint boundaries do not
// have this problem: at the moment a replica persists the snapshot at
// height H, its boundary sync point (sm.BoundarySyncable) is a pure
// function of the delivery prefix, so every correct replica that
// checkpoints H serializes identical bytes NO MATTER how far its live state
// has run ahead. Each replica therefore signs a digest binding the snapshot
// to that boundary frontier with its threshold share (crypto.Share) and
// broadcasts it; whoever gathers f+1 matching shares combines them
// (crypto.Attest) into one constant-size aggregate its future StateOffers
// carry. A fetcher holding the group scheme verifies the aggregate against
// the digest it recomputes from the offer's own fields — ONE valid offer is
// then a trusted target, because f+1 replicas (at least one honest) signed
// exactly those bytes at the boundary.
//
// The attested target reaches the checkpoint, not the live head: the
// fetcher installs snapshot + boundary frontier, rejoins consensus there,
// and bridges the remaining gap through in-protocol checkpoint catch-up —
// which works while the cluster keeps deciding, the exact scenario the
// chaos harness exercises.

import (
	"encoding/binary"

	"repro/internal/crypto"
	"repro/internal/obs/flight"
	"repro/internal/store"
	"repro/internal/types"
)

// attMaxPendingHeights bounds how many not-yet-local checkpoint heights the
// manager stashes early shares for; attMaxShareLen bounds one share.
const (
	attMaxPendingHeights = 8
	attMaxShareLen       = 64
)

// attLocal accumulates shares for a checkpoint this replica itself took.
type attLocal struct {
	digest types.Digest
	bsp    []byte
	shares map[uint32][]byte
}

// attDone is a formed aggregate attestation, ready to ride on offers.
type attDone struct {
	height uint64
	bsp    []byte
	att    []byte
}

// pendingShare is a share that arrived before the local replica reached the
// checkpoint it attests.
type pendingShare struct {
	digest types.Digest
	share  []byte
}

// attestDigest is the message f+1 replicas sign at a checkpoint boundary:
// every snapshot identity field a fetch will be verified against, bound to
// the boundary sync point. ChunkBytes is deliberately excluded — it is
// the serving side's choice, and a lie about it only makes a fetch fail its
// size checks, never pass verification with wrong bytes.
func attestDigest(snapHeight, snapSize uint64, appHash, headHash, stateDigest types.Digest, txnCount uint64, bsp []byte) types.Digest {
	buf := make([]byte, 0, 12+8*3+32*3+len(bsp))
	buf = append(buf, "ckpt-att-v1"...)
	buf = binary.BigEndian.AppendUint64(buf, snapHeight)
	buf = binary.BigEndian.AppendUint64(buf, snapSize)
	buf = append(buf, appHash[:]...)
	buf = append(buf, headHash[:]...)
	buf = append(buf, stateDigest[:]...)
	buf = binary.BigEndian.AppendUint64(buf, txnCount)
	buf = append(buf, bsp...)
	return types.Hash(buf)
}

// AttestCheckpoint begins attesting the just-persisted snapshot: compute
// the boundary digest, record and broadcast the local share, and adopt any
// shares peers sent ahead of us. Called on the event loop (runtime
// saveSnapshot); the app-state hash and the sends run on the serve
// goroutine.
func (m *Manager) AttestCheckpoint(snap *store.Snapshot, bsp []byte) {
	if m.cfg.AttestScheme == nil || snap == nil || len(bsp) == 0 {
		return
	}
	bspCopy := append([]byte(nil), bsp...)
	task := serveReq{fn: func() { m.attestLocal(snap, bspCopy) }}
	select {
	case m.serveQ <- task:
	default: // full queue: this boundary goes unattested, the next attests
	}
}

// attestLocal runs on the serve goroutine.
func (m *Manager) attestLocal(snap *store.Snapshot, bsp []byte) {
	scheme := m.cfg.AttestScheme
	digest := attestDigest(snap.Height, uint64(len(snap.AppState)), m.snapHash(snap),
		snap.HeadHash, snap.StateDigest, snap.TxnCount, bsp)
	self := uint32(m.cfg.Self)
	share := scheme.Share(self, digest[:])

	m.mu.Lock()
	local := &attLocal{digest: digest, bsp: bsp, shares: map[uint32][]byte{self: share}}
	m.attLocals[snap.Height] = local
	// Adopt matching early shares; drop the rest (their digest disagrees
	// with what we just checkpointed — a lagging recovery or a liar).
	for party, ps := range m.attPending[snap.Height] {
		if ps.digest == digest {
			local.shares[party] = ps.share
		}
	}
	delete(m.attPending, snap.Height)
	// A newer checkpoint retires every older accumulation: offers only ever
	// carry the attestation of the CURRENT snapshot generation (serveChunk
	// can serve no other).
	for h := range m.attLocals {
		if h < snap.Height {
			delete(m.attLocals, h)
		}
	}
	for h := range m.attPending {
		if h < snap.Height {
			delete(m.attPending, h)
		}
	}
	m.mu.Unlock()

	msg := &types.CheckpointAttest{
		Replica: m.cfg.Self,
		Height:  snap.Height,
		Digest:  digest,
		Share:   share,
	}
	for i := 0; i < m.cfg.N; i++ {
		if id := types.ReplicaID(i); id != m.cfg.Self {
			m.host.Send(id, msg)
		}
	}
	m.maybeFormAttestation(snap.Height)
}

// handleAttestShare runs on the serve goroutine: verify and accumulate one
// peer's share, or stash it when the local replica has not reached that
// checkpoint yet.
func (m *Manager) handleAttestShare(from types.ReplicaID, a *types.CheckpointAttest) {
	scheme := m.cfg.AttestScheme
	if scheme == nil || a.Replica != from || len(a.Share) == 0 || len(a.Share) > attMaxShareLen {
		return
	}
	party := uint32(from)
	// The share is verified against the digest the SENDER claims; whether
	// that digest is the right one for the height is decided when the local
	// checkpoint exists to compare against.
	if !scheme.VerifyShare(party, a.Digest[:], a.Share) {
		m.bump(func(s *Stats) { s.AttSharesRejected++ })
		return
	}
	m.mu.Lock()
	if local, ok := m.attLocals[a.Height]; ok {
		if local.digest != a.Digest {
			m.mu.Unlock()
			m.bump(func(s *Stats) { s.AttSharesRejected++ })
			return
		}
		local.shares[party] = a.Share
		m.mu.Unlock()
		m.maybeFormAttestation(a.Height)
		return
	}
	// Not our checkpoint (yet): stash, bounded.
	floor := uint64(0)
	if m.attDone != nil {
		floor = m.attDone.height
	}
	if a.Height <= floor || (len(m.attPending) >= attMaxPendingHeights && m.attPending[a.Height] == nil) {
		m.mu.Unlock()
		return
	}
	hp := m.attPending[a.Height]
	if hp == nil {
		hp = make(map[uint32]pendingShare, m.cfg.N)
		m.attPending[a.Height] = hp
	}
	hp[party] = pendingShare{digest: a.Digest, share: a.Share}
	m.mu.Unlock()
}

// maybeFormAttestation combines f+1 matching shares into the aggregate the
// replica's offers will carry.
func (m *Manager) maybeFormAttestation(height uint64) {
	scheme := m.cfg.AttestScheme
	m.mu.Lock()
	local, ok := m.attLocals[height]
	if !ok || len(local.shares) < m.cfg.Attest || (m.attDone != nil && m.attDone.height >= height) {
		m.mu.Unlock()
		return
	}
	shares := make(map[uint32][]byte, len(local.shares))
	for p, s := range local.shares {
		shares[p] = s
	}
	digest, bsp := local.digest, local.bsp
	m.mu.Unlock()

	at, err := scheme.Attest(digest[:], shares)
	if err != nil {
		return
	}
	enc := at.Marshal(nil)
	m.mu.Lock()
	if m.attDone == nil || height > m.attDone.height {
		m.attDone = &attDone{height: height, bsp: bsp, att: enc}
	}
	m.mu.Unlock()
	m.bump(func(s *Stats) { s.AttestationsFormed++ })
	m.emit(flight.KCkptAttest, height, uint64(len(shares)))
	m.logf("statesync: checkpoint %d attested (%d shares)", height, len(shares))
}

// attestationFor returns the (boundary sync point, aggregate) pair for the
// snapshot generation snap, when one has formed.
func (m *Manager) attestationFor(snap *store.Snapshot) ([]byte, []byte) {
	if snap == nil {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.attDone == nil || m.attDone.height != snap.Height {
		return nil, nil
	}
	return m.attDone.bsp, m.attDone.att
}

// attestedTarget scans a probe round's offers for a valid aggregate
// attestation above the local height and, when the byte-identical path
// found nothing, synthesizes a fetch target that reaches the attested
// checkpoint: Height/HeadHash collapse to the snapshot fields and the
// boundary sync point replaces the live frontier, so the ordinary
// fetch-and-install path needs no special casing (the range fetch is simply
// empty). Returns the target plus the replicas serving that exact snapshot
// generation.
func (m *Manager) attestedTarget(offers map[types.ReplicaID]*types.StateOffer, local uint64) (*types.StateOffer, []types.ReplicaID) {
	scheme := m.cfg.AttestScheme
	if scheme == nil {
		return nil, nil
	}
	type key struct {
		height uint64
		digest types.Digest
	}
	verified := make(map[key][]types.ReplicaID)
	for from, o := range offers {
		if len(o.Att) == 0 || o.SnapHeight <= local {
			continue
		}
		digest := attestDigest(o.SnapHeight, o.SnapSize, o.SnapAppHash,
			o.SnapHeadHash, o.SnapStateDigest, o.TxnCount, o.AttSyncPoint)
		at, rest, err := crypto.UnmarshalAttestation(o.Att)
		if err != nil || len(rest) != 0 || !scheme.VerifyAttestation(digest[:], at) {
			m.bump(func(s *Stats) { s.AttOffersRejected++ })
			m.reject(flight.RejectDigest, o.SnapHeight)
			continue
		}
		verified[key{o.SnapHeight, digest}] = append(verified[key{o.SnapHeight, digest}], from)
	}
	var bestKey key
	var bestSrc []types.ReplicaID
	for k, members := range verified {
		if bestSrc == nil || k.height > bestKey.height {
			bestKey, bestSrc = k, members
		}
	}
	if bestSrc == nil {
		return nil, nil
	}
	t := *offers[bestSrc[0]]
	t.Height = t.SnapHeight
	t.HeadHash = t.SnapHeadHash
	t.SyncPoint = t.AttSyncPoint
	m.bump(func(s *Stats) { s.AttestedTargets++ })
	m.emit(flight.KAttTarget, t.SnapHeight, uint64(len(bestSrc)))
	return &t, bestSrc
}
