package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// StateSync measures the checkpoint-based catch-up subsystem end to end: a
// 4-replica durable cluster decides real YCSB transactions, one replica is
// taken down (and optionally wiped), and the experiment reports how fast
// the state transfer brings it back to the head — transfer throughput in
// MB/s and blocks/s, the operational numbers an operator sizes recovery
// windows with.
func StateSync() (*Table, error) {
	t := &Table{
		ID:    "statesync",
		Title: "checkpoint-based catch-up: transfer throughput (4 replicas, in-process transport)",
		Header: []string{"scenario", "records", "height", "snapshot-MB", "blocks-fetched",
			"transfer-s", "MB/s", "blocks/s"},
	}
	type scenario struct {
		name      string
		records   int
		blocks    int
		snapEvery uint64
		wipe      bool
	}
	for _, sc := range []scenario{
		// A wiped replica ships the latest snapshot (taken at height 48)
		// plus the 8-block suffix to the head.
		{"wiped (snapshot+range)", 200_000, 56, 16, true},
		// A lagging replica keeps its prefix and fetches only the range.
		{"lagging (range only)", 200_000, 48, 0, false},
	} {
		row, err := runStateSyncScenario(sc.name, sc.records, sc.blocks, sc.snapEvery, sc.wipe)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runStateSyncScenario(name string, records, blocks int, snapEvery uint64, wipe bool) ([]string, error) {
	base, err := os.MkdirTemp("", "rcc-statesync-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	const n = 4
	params, err := quorum.NewParams(n)
	if err != nil {
		return nil, err
	}
	hub := transport.NewMemory()
	mkReplica := func(id types.ReplicaID) (*runtime.Replica, error) {
		rep, err := runtime.New(runtime.Config{
			ID:     id,
			Params: params,
			Machine: pbft.New(pbft.Config{
				BatchSize: 1, Window: 16, ProgressTimeout: 30 * time.Second,
			}),
			App:            ycsb.NewStore(records),
			DataDir:        filepath.Join(base, fmt.Sprintf("replica-%d", id)),
			Journaling:     runtime.JournalOptions{SnapshotEvery: snapEvery},
			ReplyToClients: true,
			StateSync: runtime.StateSyncOptions{
				Enabled:     true,
				OfferWait:   100 * time.Millisecond,
				Retry:       200 * time.Millisecond,
				SteadyProbe: 300 * time.Millisecond,
			},
		})
		if err != nil {
			return nil, err
		}
		rep.Attach(hub.AttachReplica(id, rep))
		rep.Run()
		return rep, nil
	}

	reps := make([]*runtime.Replica, n)
	for i := 0; i < n; i++ {
		if reps[i], err = mkReplica(types.ReplicaID(i)); err != nil {
			return nil, err
		}
	}
	stopAll := func() {
		for i, r := range reps {
			if r != nil {
				hub.Detach(types.ReplicaID(i))
				r.Stop()
			}
		}
	}
	defer stopAll()

	drive := func(cid types.ClientID, txns int) error {
		mach := client.New(client.Config{Client: cid, Broadcast: true, RetryTimeout: time.Second})
		wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: records, Seed: int64(cid)})
		for i := 0; i < txns; i++ {
			mach.Submit(wl.Next(cid))
		}
		proc := runtime.NewClient(cid, params, mach)
		proc.Attach(hub.AttachClient(cid, proc))
		proc.Run()
		defer proc.Stop()
		return waitUntil(30*time.Second, func() bool { return len(mach.Completions()) == txns })
	}
	waitHeight := func(r *runtime.Replica, h uint64) error {
		return waitUntil(30*time.Second, func() bool { return r.Ledger().Height() == h })
	}

	if err := drive(1, blocks); err != nil {
		return nil, fmt.Errorf("driving workload: %w", err)
	}
	for _, r := range reps {
		if err := waitHeight(r, uint64(blocks)); err != nil {
			return nil, fmt.Errorf("cluster did not reach height %d", blocks)
		}
	}

	// Take replica 3 down; wipe it or let it lag behind a second burst.
	hub.Detach(3)
	reps[3].Stop()
	reps[3] = nil
	target := uint64(blocks)
	if wipe {
		if err := os.RemoveAll(filepath.Join(base, "replica-3")); err != nil {
			return nil, err
		}
	} else {
		if err := drive(2, blocks); err != nil {
			return nil, fmt.Errorf("driving lag workload: %w", err)
		}
		target = uint64(2 * blocks)
		for _, r := range reps[:3] {
			if err := waitHeight(r, target); err != nil {
				return nil, fmt.Errorf("live replicas did not reach height %d", target)
			}
		}
	}

	rep3, err := mkReplica(3)
	if err != nil {
		return nil, err
	}
	reps[3] = rep3
	if err := waitUntil(60*time.Second, func() bool {
		return rep3.Ledger().Height() == target && rep3.StateSync().Synced()
	}); err != nil {
		return nil, fmt.Errorf("replica did not catch up to height %d", target)
	}

	st := rep3.StateSync().Stats()
	secs := float64(st.TransferNanos) / 1e9
	bytes := float64(st.BytesFetched + st.RangeBytes)
	mbps, bps := 0.0, 0.0
	if secs > 0 {
		mbps = bytes / secs / 1e6
		bps = float64(st.BlocksFetched) / secs
	}
	return []string{
		name,
		fmt.Sprintf("%d", records),
		fmt.Sprintf("%d", target),
		fmt.Sprintf("%.2f", float64(st.BytesFetched)/1e6),
		fmt.Sprintf("%d", st.BlocksFetched),
		fmt.Sprintf("%.3f", secs),
		fmt.Sprintf("%.1f", mbps),
		fmt.Sprintf("%.0f", bps),
	}, nil
}

func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("condition not met within %v", d)
}
