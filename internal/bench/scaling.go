package bench

import (
	"fmt"
	"time"

	"repro/internal/pbft"
	"repro/internal/rcc"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// simnetThroughput measures committed transactions per second for one
// protocol on the message-level simulator: real state machines, saturating
// open-loop client load, finite bandwidth.
func simnetThroughput(proto string, n, batch int, horizon time.Duration) (float64, error) {
	net, err := simnet.New(simnet.Config{
		N:            n,
		Latency:      time.Millisecond,
		BandwidthBps: 1e9,
		Seed:         7,
	})
	if err != nil {
		return 0, err
	}
	switch proto {
	case "rcc":
		for i := 0; i < n; i++ {
			net.SetMachine(types.ReplicaID(i), rcc.New(rcc.Config{
				BatchSize: batch, Window: 8, ProgressTimeout: time.Hour,
			}))
		}
	case "pbft":
		for i := 0; i < n; i++ {
			net.SetMachine(types.ReplicaID(i), pbft.New(pbft.Config{
				BatchSize: batch, Window: 8, ProgressTimeout: time.Hour,
			}))
		}
	default:
		return 0, fmt.Errorf("bench: unknown protocol %q", proto)
	}
	net.Start()

	// Open-loop load calibrated to exceed the single-primary capacity
	// without drowning the simulation in backlog: one batch worth of fresh
	// requests per client per millisecond. One client per replica under
	// RCC (one per instance); the same aggregate demand under PBFT.
	period := time.Millisecond
	perTick := batch
	seqs := make([]uint64, n+1)
	var sched func(c int, at time.Duration)
	sched = func(c int, at time.Duration) {
		if at > horizon {
			return
		}
		net.Schedule(at, func() {
			cl := types.ClientID(c)
			for k := 0; k < perTick; k++ {
				seqs[c]++
				tx := types.Transaction{Client: cl, Seq: seqs[c], Op: []byte{byte(c), byte(seqs[c]), byte(seqs[c] >> 8)}}
				req := types.NewClientRequest(0, tx)
				for r := 0; r < n; r++ {
					net.Node(types.ReplicaID(r)).Machine().OnMessage(sm.FromClient(cl), req)
				}
			}
			sched(c, at+period)
		})
	}
	for c := 1; c <= n; c++ {
		sched(c, time.Duration(c)*time.Millisecond)
	}
	net.Run(horizon)

	total := 0
	for _, d := range net.Node(0).Decisions() {
		if d.Batch == nil {
			continue
		}
		for _, tx := range d.Batch.Txns {
			if !tx.IsNoOp() {
				total++
			}
		}
	}
	return float64(total) / horizon.Seconds(), nil
}

// Scaling measures RCC (m = n concurrent PBFT instances) against PBFT (one
// primary) on the message-level simulator at n = 4 and 7: real protocol state
// machines under finite bandwidth and saturating client load. It is the
// simulated half of Figs. 8a-b; the simulator charges no CPU, so the numbers
// are a ranking, not a prediction of the live cluster.
func Scaling() (*Table, error) {
	t := &Table{
		ID:     "scaling",
		Title:  "RCC vs PBFT on simnet (real protocols, 1 Gbit/s links, batch 10), committed txn/s",
		Header: []string{"n", "RCC", "PBFT", "RCC/PBFT"},
	}
	const batch = 10
	horizon := 3 * time.Second
	for _, n := range []int{4, 7} {
		sr, err := simnetThroughput("rcc", n, batch, horizon)
		if err != nil {
			return nil, err
		}
		sp, err := simnetThroughput("pbft", n, batch, horizon)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.0f", sr), fmt.Sprintf("%.0f", sp), fmt.Sprintf("%.2f", sr/sp),
		})
	}
	return t, nil
}
