package bench

import (
	"fmt"
	"time"

	"repro/internal/rcc"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// Fig10Config parameterizes the failure-timeline experiment.
type Fig10Config struct {
	// N is the number of replicas (the paper runs m = 11 instances).
	N int
	// Horizon is the virtual duration of the run.
	Horizon time.Duration
	// Bucket is the sampling granularity of the timeline.
	Bucket time.Duration
	// InjectEvery is the per-client request period.
	InjectEvery time.Duration
	// CrashP1At / CrashP2At schedule the failures (paper events a and c).
	CrashP1At time.Duration
	CrashP2At time.Duration
}

// DefaultFig10 mirrors the paper's timeline compressed to simulate quickly:
// P1 fails early, P1+P2 fail later, and the run is long enough to watch
// each recovery complete.
func DefaultFig10() Fig10Config {
	return Fig10Config{
		N:           11,
		Horizon:     60 * time.Second,
		Bucket:      2 * time.Second,
		InjectEvery: 100 * time.Millisecond,
		CrashP1At:   10 * time.Second,
		CrashP2At:   35 * time.Second,
	}
}

// fig10Run drives an RCC deployment through the failure schedule and
// returns delivered-transaction counts per bucket, measured at replica 0.
// Failure-detection timeouts are paper-scale (seconds): the recovery
// periods of Fig. 10 span multiple sampling buckets.
func fig10Run(cfg Fig10Config) ([]uint64, error) {
	net, err := simnet.New(simnet.Config{N: cfg.N, Latency: time.Millisecond, Seed: 42})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		net.SetMachine(types.ReplicaID(i), rcc.New(rcc.Config{
			BatchSize:       1,
			Window:          4,
			ProgressTimeout: time.Second,
			RecoveryTimeout: 1500 * time.Millisecond,
		}))
	}
	net.Start()

	// Client load: one client per replica-led instance, issuing a request
	// every InjectEvery. Requests are broadcast so every replica forwards
	// them (and can detect neglect).
	seqs := make([]uint64, cfg.N)
	for c := 1; c <= cfg.N; c++ {
		client := types.ClientID(c)
		idx := c - 1
		period := cfg.InjectEvery
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			if at > cfg.Horizon {
				return
			}
			net.Schedule(at, func() {
				seqs[idx]++
				tx := types.Transaction{Client: client, Seq: seqs[idx], Op: []byte{byte(client), byte(seqs[idx])}}
				req := types.NewClientRequest(0, tx)
				for r := 0; r < cfg.N; r++ {
					node := net.Node(types.ReplicaID(r))
					node.Machine().OnMessage(sm.FromClient(client), req)
				}
				schedule(at + period)
			})
		}
		schedule(period)
	}

	net.Schedule(cfg.CrashP1At, func() { net.Crash(1) })
	net.Schedule(cfg.CrashP2At, func() { net.Crash(2) })

	// Clients served by the crashed primaries ask to be reassigned to a
	// healthy instance (§III-E SwitchInstance); the reassignment is agreed
	// through the coordinating consensus of the old instance.
	reassign := func(c types.ClientID, from, to types.InstanceID) {
		sw := &types.SwitchInstance{Client: c, To: to}
		sw.Inst = from
		for r := 0; r < cfg.N; r++ {
			node := net.Node(types.ReplicaID(r))
			node.Machine().OnMessage(sm.FromClient(c), sw)
		}
	}
	net.Schedule(cfg.CrashP1At+4*time.Second, func() { reassign(1, 1, 0) })
	net.Schedule(cfg.CrashP2At+4*time.Second, func() { reassign(2, 2, 3) })

	// Sample delivered real transactions at replica 0 per bucket.
	buckets := int(cfg.Horizon / cfg.Bucket)
	counts := make([]uint64, buckets)
	var prev uint64
	count := func() uint64 {
		var total uint64
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
		return total
	}
	for b := 0; b < buckets; b++ {
		net.Run(time.Duration(b+1) * cfg.Bucket)
		cur := count()
		counts[b] = cur - prev
		prev = cur
	}
	return counts, nil
}

// Fig10 reproduces the Fig. 10 failure timeline for RCC on the simulator:
// primaries P1 (and later P2) crash mid-run, and wait-free per-instance
// recovery keeps the healthy instances delivering throughout. The series is
// the per-bucket transaction throughput at replica 0.
func Fig10(cfg Fig10Config) (*Table, error) {
	if cfg.N == 0 {
		cfg = DefaultFig10()
	}
	counts, err := fig10Run(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig10",
		Title: fmt.Sprintf(
			"Failure timeline, m=%d instances (txn per %s bucket at replica 0); P1 fails at %s, P1+P2 at %s",
			cfg.N, cfg.Bucket, cfg.CrashP1At, cfg.CrashP2At),
		Header: []string{"t(s)", "RCC"},
	}
	for b, c := range counts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", (time.Duration(b+1) * cfg.Bucket).Seconds()),
			fmt.Sprint(c),
		})
	}
	return t, nil
}
