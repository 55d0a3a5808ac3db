package runtime

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// TestAuthMACOverTCP runs the full RCC stack over loopback TCP with
// pairwise MACs on every link, replicas and clients both — the `-auth mac`
// stack of cmd/rccnode.
func TestAuthMACOverTCP(t *testing.T) {
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, macOpts("auth-mac-smoke"), func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c := tcpClient(t, peers, params, 1, "auth-mac-smoke", 4)
	waitFor(t, 30*time.Second, func() bool { return len(c.Completions()) == 4 })
	assertLedgersAgree(t, reps)
}

// TestAuthDSOverTCP runs the same stack under ED25519 dev-keyring
// signatures with the verified-digest cache active — the `-auth ds` stack,
// i.e. the authenticated configuration of Fig. 7 (right) measured live.
func TestAuthDSOverTCP(t *testing.T) {
	opts := dsOpts("auth-ds-smoke")
	opts.cacheEntries = 4096
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, opts, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c1 := tcpClientWith(t, peers, params, 1, opts, disjointWrites(1, 100, 4))
	c2 := tcpClientWith(t, peers, params, 2, opts, disjointWrites(2, 200, 4))
	waitFor(t, 30*time.Second, func() bool {
		return len(c1.Completions()) == 4 && len(c2.Completions()) == 4
	})
	assertLedgersAgree(t, reps)
}

// TestDSVerifyPoolDeterminismOverTCP pins the acceptance property of
// verifying on the link reader: a DS cluster must produce byte-identical
// results and state digests on every replica and across independent runs —
// authentication checks frames, it never reorders delivery.
func TestDSVerifyPoolDeterminismOverTCP(t *testing.T) {
	state, results := dsDeterminismRun(t)
	state2, results2 := dsDeterminismRun(t)
	if state2 != state {
		t.Fatalf("state digest differs across runs: %x != %x", state2, state)
	}
	if len(results2) != len(results) {
		t.Fatalf("%d results, want %d", len(results2), len(results))
	}
	for i := range results2 {
		if results2[i] != results[i] {
			t.Fatalf("result %d differs across runs: %x != %x", i, results2[i], results[i])
		}
	}
}

// dsDeterminismRun drives one fresh DS cluster with two disjoint-key clients
// to completion, stops it, and returns its application state digest (checked
// equal on every replica) and the clients' result hashes in (client, seq)
// order.
func dsDeterminismRun(t *testing.T) (types.Digest, []types.Digest) {
	t.Helper()
	const txns = 5
	opts := dsOpts("determinism-secret")
	opts.cacheEntries = 4096
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, opts, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c1 := tcpClientWith(t, peers, params, 1, opts, disjointWrites(1, 100, txns))
	c2 := tcpClientWith(t, peers, params, 2, opts, disjointWrites(2, 200, txns))
	waitFor(t, 30*time.Second, func() bool {
		return len(c1.Completions()) == txns && len(c2.Completions()) == txns
	})
	assertLedgersAgree(t, reps)

	// Result hashes, keyed by (client, seq) so completion-arrival order
	// doesn't matter.
	results := make([]types.Digest, 0, 2*txns)
	for _, c := range []*client.Client{c1, c2} {
		comps := c.Completions()
		sort.Slice(comps, func(i, j int) bool { return comps[i].Seq < comps[j].Seq })
		for _, comp := range comps {
			results = append(results, comp.Result)
		}
	}
	// Stop the cluster before touching application state (the app is
	// single-threaded by contract), then compare digests across replicas.
	for _, r := range reps {
		r.Stop()
	}
	state := reps[0].StateDigest()
	for i, r := range reps {
		if got := r.StateDigest(); got != state {
			t.Fatalf("replica %d state digest diverges within run: %x != %x", i, got, state)
		}
	}
	return state, results
}

// disjointWrites builds txns explicit writes to keys [base, base+txns) —
// clients with different bases never touch the same record, so the final
// application state is independent of cross-client interleaving and can be
// compared bit-for-bit across runs.
func disjointWrites(id types.ClientID, base uint32, txns int) []types.Transaction {
	out := make([]types.Transaction, txns)
	for i := range out {
		out[i] = types.Transaction{
			Client: id,
			Seq:    uint64(i + 1),
			Op:     ycsb.EncodeWrite(base+uint32(i), []byte(fmt.Sprintf("v-%d-%d", id, i))),
		}
	}
	return out
}

// assertLedgersAgree verifies every replica's chain and that all heads
// match.
func assertLedgersAgree(t *testing.T, reps []*Replica) {
	t.Helper()
	h := reps[0].Ledger().Head()
	waitFor(t, 10*time.Second, func() bool {
		h = reps[0].Ledger().Head()
		for _, r := range reps[1:] {
			if r.Ledger().Head().Hash() != h.Hash() {
				return false
			}
		}
		return true
	})
	for i, r := range reps {
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d ledger: %v", i, err)
		}
	}
}
