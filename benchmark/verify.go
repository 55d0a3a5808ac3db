package main

import (
	"fmt"
	"time"

	"repro/internal/types"
)

// quiesceWait bounds how long verify waits for the live replicas to reach one
// height after the load has drained.
const quiesceWait = 5 * time.Second

// verify checks the outputs of a drained run over the live replicas: every
// ledger's hash chain and proofs hold; the replicas agree on the block at
// their minimum common height and, once they stand at one height, on the
// application state; every acknowledged (client, seq) is on the first live
// replica's chain exactly once; no journal failed. recs holds each client's
// requests, indexed like c.clients. It returns one line per violation.
func verify(c *cluster, recs [][]rec) []string {
	var errs []string
	live := c.live()
	if len(live) < c.params.NF() {
		return []string{fmt.Sprintf("only %d replicas live, need %d", len(live), c.params.NF())}
	}
	for _, n := range live {
		if err := n.rep.DurabilityErr(); err != nil {
			errs = append(errs, fmt.Sprintf("replica %d: durability: %v", n.id, err))
		}
		if err := n.rep.Ledger().Verify(); err != nil {
			errs = append(errs, fmt.Sprintf("replica %d: %v", n.id, err))
		}
	}

	// Agreement at the minimum common height needs no quiescence.
	minH := live[0].rep.Ledger().Height()
	for _, n := range live[1:] {
		minH = min(minH, n.rep.Ledger().Height())
	}
	if minH == 0 {
		return append(errs, "a live replica has an empty ledger")
	}
	want := live[0].rep.Ledger().Get(minH - 1).Hash()
	for _, n := range live[1:] {
		if got := n.rep.Ledger().Get(minH - 1).Hash(); got != want {
			errs = append(errs, fmt.Sprintf("replica %d disagrees with replica %d on block %d: %v vs %v",
				n.id, live[0].id, minH-1, got, want))
		}
	}

	// State agreement needs every replica at the same height.
	deadline := time.Now().Add(quiesceWait)
	for !sameHeight(live) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !sameHeight(live) {
		errs = append(errs, "live replicas did not reach one height after the drain")
	} else {
		var ref types.Digest
		for i, n := range live {
			var got types.Digest
			if !n.rep.Inspect(func() { got = n.rep.StateDigest() }) {
				errs = append(errs, fmt.Sprintf("replica %d stopped before its state could be read", n.id))
				continue
			}
			if i == 0 {
				ref = got
			} else if got != ref {
				errs = append(errs, fmt.Sprintf("replica %d state digest %v differs from replica %d's %v", n.id, got, live[0].id, ref))
			}
		}
	}

	// Every acknowledged request is on the chain exactly once. Sequence
	// numbers are dense per client, so a count per (client, seq) is an array.
	onChain := make(map[types.ClientID][]uint8, len(c.clients))
	for i, lc := range c.clients {
		onChain[lc.id] = make([]uint8, len(recs[i])+1)
	}
	chain := live[0].rep.Ledger()
	for h := uint64(0); h < chain.Height(); h++ {
		for _, tx := range chain.Get(h).Batch.Txns {
			if tx.IsNoOp() {
				continue
			}
			seen, ok := onChain[tx.Client]
			if !ok || tx.Seq == 0 || tx.Seq >= uint64(len(seen)) {
				errs = append(errs, fmt.Sprintf("block %d holds (client %d, seq %d), which no client submitted", h, tx.Client, tx.Seq))
				continue
			}
			if seen[tx.Seq] < 2 {
				seen[tx.Seq]++
			}
		}
	}
	lost, dup := 0, 0
	for i, lc := range c.clients {
		seen := onChain[lc.id]
		for j, r := range recs[i] {
			switch n := seen[j+1]; {
			case n > 1:
				dup++
			case n == 0 && r.done != 0:
				lost++
			}
		}
	}
	if lost > 0 {
		errs = append(errs, fmt.Sprintf("%d acknowledged transactions are missing from replica %d's chain", lost, live[0].id))
	}
	if dup > 0 {
		errs = append(errs, fmt.Sprintf("%d transactions appear more than once on replica %d's chain", dup, live[0].id))
	}
	return errs
}

func sameHeight(ns []*node) bool {
	h := ns[0].rep.Ledger().Height()
	for _, n := range ns[1:] {
		if n.rep.Ledger().Height() != h {
			return false
		}
	}
	return true
}
