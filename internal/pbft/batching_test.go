package pbft

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// proposal is one PRE-PREPARE the primary (replica 0) sent.
type proposal struct {
	at   time.Duration
	size int
}

// batchingCluster builds a 4-replica cluster that records the primary's
// proposals as they leave for replica 1.
func batchingCluster(t *testing.T, cfg Config, latency time.Duration) (*simnet.Network, *[]proposal) {
	t.Helper()
	var props []proposal
	var net *simnet.Network
	net, _ = cluster(t, 4, cfg, simnet.Config{Latency: latency, Drop: func(from, to types.ReplicaID, m types.Message) bool {
		if pp, ok := m.(*types.PrePrepare); ok && from == 0 && to == 1 {
			props = append(props, proposal{net.Now(), pp.Batch.Len()})
		}
		return false
	}})
	return net, &props
}

// arrive delivers one client request carrying txns to every replica at time
// at.
func arrive(net *simnet.Network, at time.Duration, txns ...types.Transaction) {
	req := types.NewClientRequest(0, txns...)
	for i := 0; i < net.Params().N; i++ {
		node := net.Node(types.ReplicaID(i))
		net.Schedule(at, func() { node.Machine().OnMessage(sm.FromClient(txns[0].Client), req) })
	}
}

// A steady trickle far below a batch per deadline is the light regime: the
// primary proposes what it has every lightWait instead of waiting for 100
// transactions. Under the old idle timer, re-armed on every arrival, the
// first batch waited for the 100th transaction.
func TestTrickleProposesAtLightDeadline(t *testing.T) {
	const link = 500 * time.Microsecond // consensus ≈ 3 links, a LAN round
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 8, Metrics: met}, link)
	const txns = 300
	for i := 0; i < txns; i++ {
		arrive(net, time.Duration(i)*time.Millisecond, mkTx(1, uint64(i+1)))
	}
	net.Run(time.Second)

	ps := *props
	if len(ps) == 0 {
		t.Fatal("primary proposed nothing")
	}
	if ps[0].at > lightWait+link {
		t.Fatalf("first proposal at %v, want within %v", ps[0].at, lightWait+link)
	}
	proposed := 0
	for i, p := range ps {
		proposed += p.size
		if i > 0 && p.at-ps[i-1].at > lightWait {
			t.Fatalf("proposal %d came %v after the previous one, want within %v", i, p.at-ps[i-1].at, lightWait)
		}
	}
	if proposed != txns {
		t.Fatalf("proposed %d transactions, want %d", proposed, txns)
	}
	if got := met.LightPartials.Value(); got != uint64(len(ps)) {
		t.Fatalf("light partials = %d, want every one of the %d proposals", got, len(ps))
	}
	if got := len(net.Node(3).Decisions()); got != len(ps) {
		t.Fatalf("replica 3 decided %d rounds, want %d", got, len(ps))
	}
}

// A primary under load keeps full batches: a closed loop of 2.56 batches
// outstanding (lan_ds's 256-window against 100-transaction batches) always
// leaves a remainder queued, and 5 ms links put the pipeline occupancy well
// above 1/4, so no light-regime partial is cut.
func TestSaturatedPrimaryKeepsFullBatches(t *testing.T) {
	const (
		link        = 5 * time.Millisecond
		outstanding = 256
		warmup      = 100 * time.Millisecond
		run         = time.Second
	)
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 8, Metrics: met}, link)
	issued := 0
	var refill func()
	refill = func() {
		done := 0
		for _, d := range net.Node(0).Decisions() {
			done += d.Batch.Len()
		}
		var txns []types.Transaction
		for ; issued-done < outstanding; issued++ {
			txns = append(txns, mkTx(1, uint64(issued+1)))
		}
		if len(txns) > 0 {
			arrive(net, net.Now()+link, txns...)
		}
		if net.Now() < run {
			net.Schedule(net.Now()+time.Millisecond, refill)
		}
	}
	net.Schedule(0, refill)
	net.Run(run)

	late := 0
	for i, p := range *props {
		if p.at < warmup {
			continue
		}
		late++
		if p.size != 100 {
			t.Fatalf("proposal %d at %v carries %d transactions, want a full batch of 100", i, p.at, p.size)
		}
	}
	if late < 20 {
		t.Fatalf("only %d proposals after warm-up, the loop is not saturating the primary", late)
	}
	if got := met.LightPartials.Value(); got != 0 {
		t.Fatalf("%d light-regime partials cut under load, want 0", got)
	}
}

// Time spent waiting for a window slot does not count against BatchTimeout:
// a window-bound primary whose commits take longer than BatchTimeout fills
// each freed slot with a full batch instead of the partial that queued
// while the slot was busy.
func TestWindowBoundPrimaryKeepsFullBatches(t *testing.T) {
	const link = 30 * time.Millisecond // a commit takes ≈ 90 ms
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 1, BatchTimeout: 50 * time.Millisecond}, link)
	for i := 0; i < 1000; i++ {
		arrive(net, time.Duration(i)*time.Millisecond, mkTx(1, uint64(i+1)))
	}
	net.Run(time.Second)
	ps := *props
	if len(ps) < 6 {
		t.Fatalf("only %d proposals", len(ps))
	}
	for i, p := range ps[1:] {
		if p.size != 100 {
			t.Fatalf("proposal %d at %v carries %d transactions, want a full batch of 100", i+1, p.at, p.size)
		}
	}
}

// Waiting for a first request does not count against BatchTimeout either:
// after a batch that emptied the queue, a burst too small to fill the next
// batch waits BatchTimeout from its own arrival, and the burst behind it
// fills the batch. Measured from the last proposal, the deadline would cut
// the first burst alone.
func TestBurstyArrivalsKeepFullBatches(t *testing.T) {
	const link = 5 * time.Millisecond // occupancy well above 1/4: load regime
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 8, BatchTimeout: 50 * time.Millisecond}, link)
	seq := uint64(0)
	burst := func(at time.Duration, n int) {
		txns := make([]types.Transaction, n)
		for i := range txns {
			seq++
			txns[i] = mkTx(1, seq)
		}
		arrive(net, at, txns...)
	}
	burst(time.Millisecond, 100)
	burst(41*time.Millisecond, 60)
	burst(71*time.Millisecond, 40)
	net.Run(time.Second)
	ps := *props
	if len(ps) != 2 || ps[1].size != 100 || ps[1].at != 71*time.Millisecond {
		t.Fatalf("proposals = %+v, want two full batches, the second at 71ms", ps)
	}
}

// A lone request with nothing arriving behind it is proposed within
// BatchTimeout.
func TestLoneRequestProposedWithinBatchTimeout(t *testing.T) {
	net, props := batchingCluster(t, Config{BatchSize: 100, BatchTimeout: 50 * time.Millisecond}, time.Millisecond)
	arrive(net, 200*time.Millisecond, mkTx(1, 1))
	net.Run(time.Second)
	ps := *props
	if len(ps) != 1 || ps[0].size != 1 {
		t.Fatalf("proposals = %+v, want one batch of the lone request", ps)
	}
	if wait := ps[0].at - 200*time.Millisecond; wait > 50*time.Millisecond {
		t.Fatalf("lone request proposed after %v, want within BatchTimeout", wait)
	}
}

// In the load regime BatchTimeout is a deadline that arrivals do not move.
// A burst that leaves a remainder queued (with window slots free) starts it
// at the burst's proposal, so a trickle too slow to fill the next batch
// gets that batch out BatchTimeout later. The old idle timer, re-armed by
// every arrival, waited for the batch to fill (100 ms here).
func TestLoadDeadlineMeasuredFromLastProposal(t *testing.T) {
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 8, BatchTimeout: 50 * time.Millisecond}, time.Millisecond)
	burst := make([]types.Transaction, 150)
	for i := range burst {
		burst[i] = mkTx(1, uint64(i+1))
	}
	arrive(net, 0, burst...)
	for i := 0; i < 100; i++ {
		arrive(net, time.Duration(2*i+1)*time.Millisecond, mkTx(1, uint64(151+i)))
	}
	net.Run(time.Second)
	ps := *props
	if len(ps) < 2 || ps[0].size != 100 {
		t.Fatalf("proposals = %+v, want a full batch first", ps)
	}
	if gap := ps[1].at - ps[0].at; gap > 50*time.Millisecond || ps[1].size >= 100 {
		t.Fatalf("second proposal: %d transactions %v after the first, want a partial within BatchTimeout", ps[1].size, gap)
	}
}

// The batch stage is observed once per proposal, full or partial.
func TestBatchStageObservedOncePerProposal(t *testing.T) {
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	net, props := batchingCluster(t, Config{BatchSize: 100, Window: 2, Metrics: met}, time.Millisecond)
	burst := make([]types.Transaction, 250)
	for i := range burst {
		burst[i] = mkTx(1, uint64(i+1))
	}
	arrive(net, 0, burst...)
	for i := 0; i < 100; i++ {
		arrive(net, time.Duration(i)*time.Millisecond, mkTx(2, uint64(i+1)))
	}
	net.Run(time.Second)
	if len(*props) < 4 {
		t.Fatalf("only %d proposals", len(*props))
	}
	if got := met.Stage(obs.StageBatch).Snapshot().Count; got != uint64(len(*props)) {
		t.Fatalf("batch stage has %d samples, want one per proposal (%d)", got, len(*props))
	}
}
