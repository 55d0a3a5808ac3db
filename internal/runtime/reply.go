package runtime

import (
	"slices"

	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/types"
)

// replyCacheWindow bounds the per-client reply cache, counted in batch
// replies: a retransmitted seq stays answerable while its batch is among
// the client's last replyCacheWindow decided batches.
const replyCacheWindow = 16

// replyRing holds a client's most recent batch replies.
type replyRing struct {
	buf  [replyCacheWindow]*types.ClientReply
	next int    // slot the next reply overwrites
	max  uint64 // highest seq ever cached
}

// cacheReply remembers a sent batch reply for retransmit resends, evicting
// the client's oldest cached batch reply.
func (r *Replica) cacheReply(reply *types.ClientReply) {
	r.replies.Lock()
	defer r.replies.Unlock()
	if r.replies.m == nil {
		r.replies.m = make(map[types.ClientID]*replyRing)
	}
	ring := r.replies.m[reply.Client]
	if ring == nil {
		ring = &replyRing{}
		r.replies.m[reply.Client] = ring
	}
	ring.buf[ring.next] = reply
	ring.next = (ring.next + 1) % replyCacheWindow
	ring.max = max(ring.max, slices.Max(reply.Seqs))
}

// answerRetransmits resends the cached reply of every transaction in req
// this replica already executed and answered, and returns the request of
// the rest (req itself when nothing was cached, nil when nothing is left).
// Answered transactions must not enter the event loop: the machine would
// only drop them below the dedup floor, leaving a client that lost the
// original reply stuck retransmitting forever.
func (r *Replica) answerRetransmits(req *types.ClientRequest) *types.ClientRequest {
	var rest []types.Transaction
	for i := range req.Txns {
		tx := &req.Txns[i]
		reply := r.cachedReply(tx.Client, tx.Seq)
		if reply == nil {
			if rest != nil {
				rest = append(rest, *tx)
			}
			continue
		}
		if rest == nil {
			rest = append(make([]types.Transaction, 0, len(req.Txns)), req.Txns[:i]...)
		}
		if r.trans != nil {
			_ = r.trans.SendClient(reply.Client, reply)
		}
	}
	switch {
	case rest == nil:
		return req
	case len(rest) == 0:
		return nil
	}
	return types.NewClientRequest(req.Inst, rest...)
}

// cachedReply returns a one-seq reply for (c, seq) derived from the cached
// batch reply that covered it, or nil. A seq above the highest cached one —
// every first transmission — returns in O(1); only retransmits scan.
func (r *Replica) cachedReply(c types.ClientID, seq uint64) *types.ClientReply {
	r.replies.Lock()
	defer r.replies.Unlock()
	ring := r.replies.m[c]
	if ring == nil || seq > ring.max {
		return nil
	}
	for _, cached := range ring.buf {
		if cached != nil && slices.Contains(cached.Seqs, seq) {
			return types.NewClientReply(cached.Inst, cached.Replica, c, cached.Round, cached.Result, []uint64{seq})
		}
	}
	return nil
}

// ackClients answers the clients covered by a decided, executed, durable
// batch with its ResultHash result: one reply per client, listing every
// seq of that client's non-no-op transactions in batch order (duplicates
// once), so a client's whole share of a batch costs one tag here and one
// verify at the client, and each listed seq completes on f+1 matching
// replies. Safe off the event loop — it reads only immutable decision
// state.
func (r *Replica) ackClients(d sm.Decision, result types.Digest) {
	// A durable replica whose journal failed must not acknowledge
	// transactions it can no longer persist: stay silent and let clients
	// collect their f+1 replies from healthy replicas.
	if r.DurabilityErr() != nil {
		return
	}
	met := r.cfg.Metrics
	for _, a := range groupAcks(d.Batch.Txns) {
		if met != nil {
			for _, seq := range a.seqs {
				met.Acks.Inc()
				met.Trace(uint16(r.cfg.ID), flight.SubRuntime, flight.KAck, uint32(d.Instance), uint64(a.c), seq)
			}
		}
		reply := types.NewClientReply(d.Instance, r.cfg.ID, a.c, d.Round, result, a.seqs)
		r.cacheReply(reply)
		if r.trans != nil {
			_ = r.trans.SendClient(a.c, reply)
		}
	}
}

// clientAck is one client's share of a decided batch.
type clientAck struct {
	c    types.ClientID
	n    int    // c's transactions in the batch, duplicates included
	max  uint64 // highest seq in seqs
	seqs []uint64
}

// groupAcks groups the seqs of txns' non-no-op transactions by client: one
// entry per client in first-appearance order, its seqs in batch order, each
// duplicate once. Batches carry few clients, so it finds a client by
// scanning those seen so far, and looks for a duplicate only where a seq
// is not above the client's highest so far. Every entry's seqs share one
// allocation.
func groupAcks(txns []types.Transaction) []clientAck {
	var acks []clientAck
	last := 0 // the previous transaction's entry
	find := func(c types.ClientID) *clientAck {
		if last >= len(acks) || acks[last].c != c {
			last = slices.IndexFunc(acks, func(a clientAck) bool { return a.c == c })
			if last < 0 {
				last = len(acks)
				acks = append(acks, clientAck{c: c})
			}
		}
		return &acks[last]
	}
	total := 0
	for i := range txns {
		if tx := &txns[i]; !tx.IsNoOp() {
			find(tx.Client).n++
			total++
		}
	}
	buf := make([]uint64, total)
	for i := range acks {
		acks[i].seqs, buf = buf[:0:acks[i].n], buf[acks[i].n:]
	}
	for i := range txns {
		tx := &txns[i]
		if tx.IsNoOp() {
			continue
		}
		a := find(tx.Client)
		if tx.Seq <= a.max && slices.Contains(a.seqs, tx.Seq) {
			continue
		}
		a.seqs = append(a.seqs, tx.Seq)
		a.max = max(a.max, tx.Seq)
	}
	return acks
}
