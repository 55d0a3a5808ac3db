package rcc

// Checkpoint-based state transfer for the RCC paradigm (sm.StateSyncable):
// the replica's frontier is the composition of every concurrent instance's
// frontier (and its coordinating consensus'), the decisions an instance
// delivered that the wave has not executed yet, plus the RCC-level round
// ordering state and the agreed client assignment. All of it is derived
// from consensus decisions, so replicas with identical frontiers serialize
// identically — the property the f+1 attestation of statesync offers rests
// on.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sm"
	"repro/internal/types"
)

const rccSyncPointV1 = 2 // distinct from the PBFT tag so blobs cannot be confused

// SyncPoint implements sm.StateSyncable.
func (r *Replica) SyncPoint() []byte {
	buf := make([]byte, 0, 64+64*len(r.states))
	buf = append(buf, rccSyncPointV1)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.execRound))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.maxDecided))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.states)))
	for _, st := range r.states {
		isp := st.inst.SyncPoint()
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.voidBelow))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.lastDec))
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.stops))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.startedAt))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(isp)))
		buf = append(buf, isp...)
		csp := st.coord.SyncPoint()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(csp)))
		buf = append(buf, csp...)
		// The inner frontier above counts rounds the instance decided but the
		// wave has not executed yet; their decisions live only here, so they
		// travel with it or an installing replica would treat them as void.
		buf = appendDecided(buf, st, r.execRound)
	}
	// Client assignment (§III-E), sorted for determinism. Only explicit
	// reassignments are recorded; the default hash assignment needs none.
	clients := make([]types.ClientID, 0, len(r.assign))
	for c := range r.assign {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.assign[c]))
	}
	// In-flight reassignment schedules (without their queued requests —
	// clients retransmit).
	pending := make([]types.ClientID, 0, len(r.switches))
	for c := range r.switches {
		pending = append(pending, c)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
	for _, c := range pending {
		s := r.switches[c]
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint16(buf, uint16(s.from))
		buf = binary.BigEndian.AppendUint16(buf, uint16(s.to))
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.activeAfter))
	}
	// Composite per-client dedup frontier (pure function of the delivery
	// prefix), sorted for determinism. A synced replica that becomes primary
	// must know which sequence numbers already executed, or a client
	// retransmission would be re-proposed and double-delivered.
	return appendDelivered(buf, r.delivered)
}

// decidedRecordMin is the encoded floor of one decided round: round, view,
// digest, batch count.
const decidedRecordMin = 8 + 8 + 32 + 4

// appendDecided appends a u32 count plus, in round order, the (round, view,
// digest, batch) of every decision st holds for a round at or past from.
// Commit signers are left out: they depend on quorum timing, and offers from
// distinct replicas must serialize byte-identically.
func appendDecided(buf []byte, st *instState, from types.Round) []byte {
	rounds := make([]types.Round, 0, len(st.decided))
	for rnd, d := range st.decided {
		if rnd >= from && d.Batch != nil {
			rounds = append(rounds, rnd)
		}
	}
	slices.Sort(rounds)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rounds)))
	for _, rnd := range rounds {
		d := st.decided[rnd]
		buf = binary.BigEndian.AppendUint64(buf, uint64(rnd))
		buf = binary.BigEndian.AppendUint64(buf, uint64(d.View))
		buf = append(buf, d.Digest[:]...)
		buf = d.Batch.Marshal(buf)
	}
	return buf
}

// appendDelivered appends a u32 count plus sorted (client u32, seq u64)
// pairs.
func appendDelivered(buf []byte, m map[types.ClientID]uint64) []byte {
	clients := make([]types.ClientID, 0, len(m))
	for c := range m {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint64(buf, m[c])
	}
	return buf
}

// readDecided reads what appendDecided wrote, as decisions of instance
// inst. Each digest must cover its batch, as on every other Decision
// source: the ledger takes a decision's digest as its batch digest without
// re-hashing.
func readDecided(rd *types.Reader, inst types.InstanceID) []sm.Decision {
	out := make([]sm.Decision, rd.Count(decidedRecordMin))
	for i := range out {
		d := sm.Decision{Instance: inst, Round: types.Round(rd.U64()), View: types.View(rd.U64())}
		d.Digest, d.Batch = rd.Digest(), rd.Batch()
		if rd.Err() != nil {
			return nil
		}
		if d.Batch.Digest() != d.Digest {
			rd.Fail(fmt.Errorf("decision %d/%d: digest does not cover its batch", inst, d.Round))
			return nil
		}
		out[i] = d
	}
	return out
}

// rccSyncState is a fully parsed sync point, decoded and bounds-checked in
// its entirety BEFORE any machine state mutates — a truncated or malformed
// blob must not leave some instances installed and others not (a retry of
// the same frontier would then no-op on the already-advanced execRound and
// the machine would stay torn forever).
type rccSyncState struct {
	execRound  types.Round
	maxDecided types.Round
	insts      []rccSyncInst
	assign     map[types.ClientID]types.InstanceID
	switches   map[types.ClientID]*switchSched
	delivered  map[types.ClientID]uint64
}

type rccSyncInst struct {
	voidBelow types.Round
	lastDec   types.Round
	stops     int
	startedAt types.Round
	inner     []byte
	coord     []byte
	decided   []sm.Decision // decided at or past execRound, not yet executed
}

func parseRCCSyncPoint(data []byte, m int) (*rccSyncState, error) {
	rd := types.NewReader(data)
	if rd.U8() != rccSyncPointV1 {
		return nil, fmt.Errorf("rcc: malformed sync point")
	}
	st := &rccSyncState{
		execRound:  types.Round(rd.U64()),
		maxDecided: types.Round(rd.U64()),
	}
	if got := int(rd.U16()); rd.Err() == nil && got != m {
		return nil, fmt.Errorf("rcc: sync point has %d instances, this deployment runs %d", got, m)
	}
	for i := 0; i < m && rd.Err() == nil; i++ {
		st.insts = append(st.insts, rccSyncInst{
			voidBelow: types.Round(rd.U64()),
			lastDec:   types.Round(rd.U64()),
			stops:     int(rd.U32()),
			startedAt: types.Round(rd.U64()),
			inner:     rd.Blob(),
			coord:     rd.Blob(),
			decided:   readDecided(rd, types.InstanceID(i)),
		})
	}
	n := rd.Count(6)
	st.assign = make(map[types.ClientID]types.InstanceID, n)
	for range n {
		c, inst := types.ClientID(rd.U32()), types.InstanceID(rd.U16())
		if int(inst) >= m {
			return nil, fmt.Errorf("rcc: sync point assigns client %d to instance %d of %d", c, inst, m)
		}
		st.assign[c] = inst
	}
	n = rd.Count(16)
	st.switches = make(map[types.ClientID]*switchSched, n)
	for range n {
		c := types.ClientID(rd.U32())
		sw := &switchSched{
			from:        types.InstanceID(rd.U16()),
			to:          types.InstanceID(rd.U16()),
			activeAfter: types.Round(rd.U64()),
		}
		if int(sw.from) >= m || int(sw.to) >= m {
			return nil, fmt.Errorf("rcc: sync point moves client %d between instances %d and %d of %d", c, sw.from, sw.to, m)
		}
		st.switches[c] = sw
	}
	n = rd.Count(12)
	st.delivered = make(map[types.ClientID]uint64, n)
	for range n {
		c := types.ClientID(rd.U32())
		st.delivered[c] = rd.U64()
	}
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("rcc: sync point: %w", err)
	}
	return st, nil
}

// validateParsed checks every nested frontier blob against its instance's
// format without mutating anything.
func (r *Replica) validateParsed(sp *rccSyncState) error {
	for i, st := range r.states {
		if err := st.inst.ValidateSyncPoint(sp.insts[i].inner); err != nil {
			return fmt.Errorf("rcc: instance %d: %w", st.id, err)
		}
		if err := st.coord.ValidateSyncPoint(sp.insts[i].coord); err != nil {
			return fmt.Errorf("rcc: instance %d coordinator: %w", st.id, err)
		}
	}
	return nil
}

// ValidateSyncPoint implements sm.StateSyncable: full structural check —
// envelope and every nested frontier blob — with no mutation.
func (r *Replica) ValidateSyncPoint(data []byte) error {
	sp, err := parseRCCSyncPoint(data, len(r.states))
	if err != nil {
		return err
	}
	return r.validateParsed(sp)
}

// InstallSyncPoint implements sm.StateSyncable: adopt an attested frontier.
// The blob — including every nested instance frontier — is parsed and
// validated in full first; only then does anything mutate, so a rejected
// sync point can never leave some instances installed and others not.
// RCC-level fields install before the per-instance installs so deliveries
// those trigger (rounds committed while the transfer ran) order and execute
// against the new frontier, not the stale one.
func (r *Replica) InstallSyncPoint(data []byte) error {
	sp, err := parseRCCSyncPoint(data, len(r.states))
	if err != nil {
		return err
	}
	if err := r.validateParsed(sp); err != nil {
		return err
	}
	// Max-merge the dedup frontier even when the execution frontier brings
	// nothing new, and push it into every instance: it only ever prevents
	// re-proposing already-executed requests.
	for c, s := range sp.delivered {
		if s > r.delivered[c] {
			r.delivered[c] = s
		}
	}
	for _, st := range r.states {
		st.inst.MergeDeliveredSeqs(sp.delivered)
	}
	if sp.execRound <= r.execRound {
		return nil // already at or past the install point
	}
	r.execRound = sp.execRound
	if sp.maxDecided > r.maxDecided {
		r.maxDecided = sp.maxDecided
	}
	for i, st := range r.states {
		in := &sp.insts[i]
		if in.voidBelow > st.voidBelow {
			st.voidBelow = in.voidBelow
		}
		if in.lastDec > st.lastDec {
			st.lastDec = in.lastDec
		}
		if in.stops > st.stops {
			st.stops = in.stops
		}
		// Delivered-elsewhere rounds below the new execution frontier are
		// settled by the ledger install; drop their queued decisions. Rounds
		// the source decided but had not executed queue here instead.
		for rnd := range st.decided {
			if rnd < sp.execRound {
				delete(st.decided, rnd)
				delete(st.decidedAt, rnd)
			}
		}
		for _, d := range in.decided {
			if _, ok := st.decided[d.Round]; !ok {
				st.decided[d.Round] = d
			}
		}
		r.resetDetection(st, in.startedAt)
		if err := st.inst.InstallSyncPoint(in.inner); err != nil {
			return fmt.Errorf("rcc: instance %d: %w", st.id, err)
		}
		if err := st.coord.InstallSyncPoint(in.coord); err != nil {
			return fmt.Errorf("rcc: instance %d coordinator: %w", st.id, err)
		}
	}
	r.assign = sp.assign
	r.switches = sp.switches
	r.tryExecute()
	r.maybeNoOpFill()
	return nil
}

// BoundarySyncPoint implements sm.BoundarySyncable: the frontier as it
// stands at the current wave boundary, serialized from delivery-derived
// state only. Quorum-timing-dependent fields are normalized — per-instance
// lastDec and the replica's maxDecided collapse to execRound-1, inner
// frontiers serialize through BoundarySyncPointAt(execRound), views and
// stable checkpoints to zero — so every correct replica whose ledger stands
// at the same wave boundary produces identical bytes while consensus keeps
// running. Recovery bookkeeping (voidBelow, stops, startedAt, the coord
// frontier) is stable between recoveries; a boundary captured while a
// recovery is mid-flight may serialize differently across replicas, so no
// f+1 offers of that checkpoint match and it is never a state-transfer
// target — checkpoint targets are best-effort per boundary, and the next
// quiet boundary serves.
func (r *Replica) BoundarySyncPoint() []byte {
	buf := make([]byte, 0, 64+64*len(r.states))
	buf = append(buf, rccSyncPointV1)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.execRound))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.execRound-1)) // maxDecided, normalized
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.states)))
	for _, st := range r.states {
		isp := st.inst.BoundarySyncPointAt(r.execRound)
		if isp == nil {
			return nil
		}
		csp := st.coord.BoundarySyncPointAt(st.coord.Delivered())
		if csp == nil {
			return nil
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.voidBelow))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.execRound-1)) // lastDec, normalized
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.stops))
		buf = binary.BigEndian.AppendUint64(buf, uint64(st.startedAt))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(isp)))
		buf = append(buf, isp...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(csp)))
		buf = append(buf, csp...)
		buf = binary.BigEndian.AppendUint32(buf, 0) // decided ahead: none, the inner frontier stops at execRound
	}
	clients := make([]types.ClientID, 0, len(r.assign))
	for c := range r.assign {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.assign[c]))
	}
	pending := make([]types.ClientID, 0, len(r.switches))
	for c := range r.switches {
		pending = append(pending, c)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
	for _, c := range pending {
		s := r.switches[c]
		buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		buf = binary.BigEndian.AppendUint16(buf, uint16(s.from))
		buf = binary.BigEndian.AppendUint16(buf, uint16(s.to))
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.activeAfter))
	}
	return appendDelivered(buf, r.delivered)
}

var _ sm.StateSyncable = (*Replica)(nil)
var _ sm.BoundarySyncable = (*Replica)(nil)
