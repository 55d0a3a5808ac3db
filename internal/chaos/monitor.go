package chaos

// The monitor is the harness's memory: it records every transaction the
// moment a client acknowledges it and every block the moment a replica
// appends it. Recording during the run — not after — matters twice over.
// First, a durable replica keeps a block's body in memory only until its
// journal record is on disk, and the chaos cluster prunes its journals at
// every checkpoint, so a block may be unreadable everywhere within
// milliseconds of its commit: replicas therefore push each appended block
// to the monitor (runtime.Replica.SetBlockHook), and a periodic scan adds
// the blocks replicas install by state transfer while they are still
// materialized. Second, cross-replica block identity is checked at the
// height it diverges, so a safety violation surfaces mid-run with the
// conflicting hashes in hand instead of as an unexplained head mismatch at
// the end.

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// txKey identifies one client transaction.
type txKey struct {
	client types.ClientID
	seq    uint64
}

// blockRec is the monitor's record of one committed height.
type blockRec struct {
	hash types.Digest
	txns []txKey
}

// monitor accumulates acked transactions and the observed chain.
type monitor struct {
	mu sync.Mutex
	// ackedSet maps every client-acknowledged transaction (f+1 matching
	// replies reached the client).
	ackedSet map[txKey]struct{}
	// chain maps block index (0-based, ledger.Block.Height) to the first
	// block observed there; later observations must match it bit for bit.
	chain map[uint64]*blockRec
	// perNode tracks each node's scan frontier — the next unscanned block
	// index — so a scan is O(new blocks).
	perNode []uint64
	// violations are safety findings caught while scanning.
	violations []string
}

func newMonitor(nodes int) *monitor {
	return &monitor{
		ackedSet: make(map[txKey]struct{}),
		chain:    make(map[uint64]*blockRec),
		perNode:  make([]uint64, nodes),
	}
}

// acked records one client completion.
func (m *monitor) acked(c types.ClientID, seq uint64) {
	m.mu.Lock()
	m.ackedSet[txKey{c, seq}] = struct{}{}
	m.mu.Unlock()
}

// scan sweeps every running replica's ledger for blocks it has not swept
// yet and records them, cross-checking indices the monitor has. Ledger.Height
// is a count; materialized block indices run [Base, Height), and a block
// whose journal record is gone (pruned, or the incarnation died) is skipped.
func (m *monitor) scan(c *Cluster) {
	c.eachUp(func(n *node) {
		l := n.rep.Ledger()
		height := l.Height()
		m.mu.Lock()
		from := m.perNode[n.id]
		m.mu.Unlock()
		if base := l.Base(); from < base {
			// Blocks below the base were summarized by an installed or
			// replayed snapshot; this incarnation cannot show them.
			from = base
		}
		for h := from; h < height; h++ {
			b := l.Get(h)
			if b == nil {
				continue
			}
			m.record(h, b.Hash(), b.Batch.Txns, n.id)
		}
		m.mu.Lock()
		if height > m.perNode[n.id] {
			m.perNode[n.id] = height
		}
		m.mu.Unlock()
	})
}

// record stores or cross-checks one block observation.
func (m *monitor) record(h uint64, hash types.Digest, txns []types.Transaction, from types.ReplicaID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.chain[h]; ok {
		if prev.hash != hash {
			m.violations = append(m.violations, fmt.Sprintf(
				"height %d committed two different blocks: %x vs %x (latter from replica %d)",
				h, prev.hash[:8], hash[:8], from))
		}
		return
	}
	rec := &blockRec{hash: hash}
	for i := range txns {
		if txns[i].IsNoOp() {
			continue
		}
		rec.txns = append(rec.txns, txKey{txns[i].Client, txns[i].Seq})
	}
	m.chain[h] = rec
}

// ackedCount returns how many transactions clients acknowledged.
func (m *monitor) ackedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ackedSet)
}

// checkLoss returns the acked transactions absent from the observed chain.
// Sound because the cluster converged to one head: every replica's logical
// chain is the observed chain, so absence here is absence everywhere.
func (m *monitor) checkLoss() []txKey {
	m.mu.Lock()
	defer m.mu.Unlock()
	committed := make(map[txKey]struct{}, len(m.ackedSet))
	for _, rec := range m.chain {
		for _, k := range rec.txns {
			committed[k] = struct{}{}
		}
	}
	var lost []txKey
	for k := range m.ackedSet {
		if _, ok := committed[k]; !ok {
			lost = append(lost, k)
		}
	}
	return lost
}

// checkDuplicates returns transactions committed at more than one height —
// the re-proposal bug class a state-synced replica resuming primary duties
// would exhibit if the transferred dedup floors were dropped.
func (m *monitor) checkDuplicates() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[txKey]uint64, len(m.chain)*2)
	var dups []string
	for h, rec := range m.chain {
		for _, k := range rec.txns {
			if first, ok := seen[k]; ok {
				dups = append(dups, fmt.Sprintf(
					"client %d seq %d committed at heights %d and %d", k.client, k.seq, first, h))
				continue
			}
			seen[k] = h
		}
	}
	return dups
}

// takeViolations drains the mid-run safety findings.
func (m *monitor) takeViolations() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.violations
	m.violations = nil
	return v
}
