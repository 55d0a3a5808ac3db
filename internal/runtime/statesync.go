package runtime

import (
	"fmt"

	"repro/internal/ledger"
	"repro/internal/statesync"
	"repro/internal/store"
	"repro/internal/types"
)

// initStateSync wires the checkpoint-based state-transfer subsystem when
// configured. The manager's goroutines start in Run (after the transport is
// attached).
func (r *Replica) initStateSync() {
	if !r.cfg.StateSync.Enabled {
		return
	}
	r.sync = statesync.New(statesync.Config{
		Self:          r.cfg.ID,
		N:             r.cfg.Params.N,
		OfferWait:     r.cfg.StateSync.OfferWait,
		RetryInterval: r.cfg.StateSync.Retry,
		SteadyProbe:   r.cfg.StateSync.SteadyProbe,
		Flight:        r.flight(),
	}, statesync.Host{
		Send: func(to types.ReplicaID, m types.Message) {
			if r.trans != nil {
				_ = r.trans.Send(to, m)
			}
		},
		Snapshot:  func() *store.Snapshot { return r.durable.LatestSnapshot() },
		Ledger:    func() *ledger.Ledger { return r.durable.Memory() },
		SyncPoint: r.syncable.SyncPoint,
		Install:   r.installFromSync,
		OnLoop:    func(fn func()) bool { return r.host.enqueue(event{fn: fn}) },
		Logf:      r.logf,
	})
}

// StateSync returns the state-transfer manager (nil unless Config.StateSync
// armed it).
func (r *Replica) StateSync() *statesync.Manager { return r.sync }

// installFromSync applies a verified state transfer. Runs on the event
// loop: the application and machine are single-threaded by contract, and no
// execution can interleave with the store swap.
func (r *Replica) installFromSync(res *statesync.Result) error {
	if err := r.DurabilityErr(); err != nil {
		// The disk already failed this process; installing over it would
		// just hide the fault. Operators restart the replica instead.
		return err
	}
	local := r.durable.Memory().Height()
	if res.Target <= local {
		return nil // consensus caught this replica up while the fetch ran
	}
	// Reject a malformed or incompatible machine frontier BEFORE the store
	// commits anything: at this point the whole transfer is still cleanly
	// retryable, whereas a post-commit failure tears the replica.
	if len(res.SyncPoint) > 0 {
		if err := r.syncable.ValidateSyncPoint(res.SyncPoint); err != nil {
			return err
		}
	}
	if res.Snapshot != nil {
		// Full install: rebase the store, then rebuild the application
		// from the installed snapshot + suffix (with per-block digest
		// audits, exactly like a restart).
		if err := r.durable.InstallState(res.Snapshot, res.Blocks); err != nil {
			return err
		}
		if _, err := r.durable.RestoreApp(r.cfg.App); err != nil {
			// The store committed the new state but the application could
			// not be rebuilt onto it: the replica is torn. Poison it
			// (DurabilityErr) so it stops acknowledging and operators
			// restart it — a reopen re-runs this restore from the durable
			// install — instead of running on and reporting itself synced.
			r.setDurErr(err)
			return err
		}
	} else {
		// Lag-only install: the local prefix is intact, the fetched blocks
		// extend it; replay them on the live application. Blocks
		// consensus delivered while the fetch ran are trimmed off the
		// front (they are the same chain — InstallBlocks re-checks the
		// hash link onto the local head).
		blocks := res.Blocks
		for len(blocks) > 0 && blocks[0].Height < local {
			blocks = blocks[1:]
		}
		if len(blocks) == 0 {
			return nil
		}
		if blocks[0].Height != local {
			return fmt.Errorf("runtime: catch-up range starts at %d, local height is %d",
				blocks[0].Height, local)
		}
		if err := r.durable.InstallBlocks(blocks); err != nil {
			return err
		}
		if err := r.durable.ReplayApp(r.cfg.App, local); err != nil {
			// The blocks are journaled but the application diverged
			// applying them: torn replica, same poisoning rationale as the
			// snapshot path.
			r.setDurErr(err)
			return err
		}
	}
	// The machine rejoins at the attested frontier; rounds it committed
	// while the transfer ran deliver (and execute) from here.
	if len(res.SyncPoint) > 0 {
		if err := r.syncable.InstallSyncPoint(res.SyncPoint); err != nil {
			// Store and application are at the target but the machine is
			// not: poison rather than run split-brained. A restart
			// re-derives the machine frontier from a fresh sync.
			r.setDurErr(err)
			return err
		}
	}
	return nil
}
