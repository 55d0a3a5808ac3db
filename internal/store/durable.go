package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/wal"
)

// ErrSnapshotMismatch reports a checkpoint that disagrees with the journal
// it sits next to: it claims a height the WAL never reached, or state the
// chain never produced. Either the data directory was assembled from two
// different replicas or the storage lied; recovery must not guess.
var ErrSnapshotMismatch = errors.New("store: snapshot disagrees with replayed WAL")

// Options parameterizes a DurableLedger.
type Options struct {
	// Sync is the WAL durability policy (default: every ack follows an
	// fsync covering its record).
	Sync wal.SyncPolicy
	// AsyncQueueDepth bounds blocks in flight (appended, not yet durable);
	// appends block when it fills (back-pressure). Default
	// wal.DefaultQueueDepth.
	AsyncQueueDepth int
	// AsyncOnCommit, when set, observes every successful commit point
	// (records and bytes covered, commit-point duration) — the metrics
	// hook. It runs on the committer goroutine; keep it fast.
	AsyncOnCommit func(records int, bytes int64, took time.Duration)
	// Identity names the replica owning the data dir. On first open it is
	// stamped into the dir; a reopen under a different identity fails with
	// ErrDataDirMismatch (a data dir is not portable across replicas —
	// its chain is this replica's voting history). Empty skips the
	// ownership check but still stamps and checks the format version.
	Identity string
	// PruneWAL reclaims WAL segments below each persisted checkpoint: every
	// Snapshot(H) rolls the active segment and prunes the records the
	// checkpoint summarizes, leaving the log rebased to exactly H (the same
	// invariant a state-transfer install establishes). Long-running replicas
	// need it to keep disk usage proportional to the checkpoint interval
	// instead of the chain length.
	PruneWAL bool
	// Failpoints, when non-nil, injects disk faults into the WAL (see
	// wal.Failpoints). Chaos/test wiring only.
	Failpoints *wal.Failpoints
}

// DurableLedger wraps the in-memory hash-chained ledger with durability:
// every appended block is journaled through the write-ahead log's pipelined
// committer (wal.Appender), and Open rebuilds the chain from disk — replaying
// the WAL, truncating a torn tail, re-auditing the rebuilt chain
// (ledger.Verify, including commit-proof digests), and cross-checking the
// latest snapshot against it.
type DurableLedger struct {
	dir  string
	opts Options

	mu    sync.Mutex
	mem   *ledger.Ledger
	log   *wal.Log
	async *wal.Appender // the log's committer; replaced with it by InstallState
	snaps *SnapshotStore
	snap  *Snapshot // latest consistent checkpoint found at Open, may be nil
	// enc is AppendAsync's block encoding buffer, reused across appends:
	// the WAL copies a record into its own write buffer before Submit
	// returns.
	enc []byte
}

// Open opens (creating if necessary) the durable ledger rooted at dir. The
// WAL lives in dir/wal, checkpoints in dir/checkpoints, and the dir itself
// is stamped with the replica identity and format version (first open
// stamps, later opens enforce — see ErrDataDirMismatch).
func Open(dir string, opts Options) (*DurableLedger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := stampIdentity(dir, opts.Identity); err != nil {
		return nil, err
	}
	// A crash may have interrupted a state-transfer install: a committed
	// install (marker present) rolls forward to the new state, an
	// uncommitted one is discarded — never a half-installed mix.
	if err := recoverInstall(dir); err != nil {
		return nil, err
	}
	d := &DurableLedger{dir: dir, opts: opts}
	err := d.openJournal()
	if err != nil {
		return nil, err
	}
	if d.snaps, err = OpenSnapshots(filepath.Join(dir, ckpDirName)); err != nil {
		d.Close()
		return nil, err
	}
	// A journal whose first record index is past 1 was rebased by a
	// state-transfer install: blocks below the base live only in the base
	// snapshot, which anchors the chain's hash links and transaction count.
	if base := d.log.Base() - 1; base > 0 {
		d.snaps.Pin(base)
		bs, err := d.snaps.Load(base)
		if err != nil {
			d.Close()
			return nil, err
		}
		if bs == nil {
			d.Close()
			return nil, fmt.Errorf("%w: journal is rebased to height %d but the base checkpoint is missing",
				ErrSnapshotMismatch, base)
		}
		d.mem = ledger.NewAt(base, bs.HeadHash, bs.TxnCount)
	} else {
		d.mem = ledger.New()
	}
	if err := d.replay(); err != nil {
		d.Close()
		return nil, err
	}
	snap, err := d.snaps.Latest()
	if err != nil {
		d.Close()
		return nil, err
	}
	if snap != nil {
		if err := d.checkSnapshot(snap); err != nil {
			d.Close()
			return nil, err
		}
		// v1 snapshot files carried no transaction count; rebuild it from
		// the replayed chain so state-transfer offers stay accurate.
		if snap.TxnCount == 0 && snap.Height > 0 && d.mem.Base() == 0 {
			for h := uint64(0); h < snap.Height; h++ {
				snap.TxnCount += uint64(d.mem.Get(h).Batch.Len())
			}
		}
		d.snap = snap
	}
	return d, nil
}

// openJournal opens the WAL under d.dir and starts its committer — the one
// place the pair is built, so a state-transfer install reopens the journal
// with exactly the options (commit hook included) the first open used.
func (d *DurableLedger) openJournal() error {
	log, err := wal.Open(filepath.Join(d.dir, walDirName), wal.Options{
		Sync:       d.opts.Sync,
		Failpoints: d.opts.Failpoints,
	})
	if err != nil {
		return err
	}
	d.log = log
	d.async = log.NewAppender(wal.AsyncOptions{
		QueueDepth: d.opts.AsyncQueueDepth,
		OnCommit:   d.opts.AsyncOnCommit,
	})
	return nil
}

// replay rebuilds the in-memory chain from the WAL and re-audits it.
func (d *DurableLedger) replay() error {
	if err := d.log.Replay(func(idx uint64, payload []byte) error {
		blk, err := ledger.DecodeBlock(payload)
		if err != nil {
			return fmt.Errorf("store: wal record %d: %w", idx, err)
		}
		got := d.mem.Append(blk.Batch, blk.Proof, blk.StateHash)
		// The rebuilt block must land at the journaled height with the
		// journaled hash — anything else means records were reordered
		// or the chain prefix differs from what this block was chained
		// onto before the crash.
		if got.Height != blk.Height || got.Hash() != blk.Hash() {
			return fmt.Errorf("store: wal record %d rebuilds height %d (hash %v), journal says height %d (hash %v)",
				idx, got.Height, got.Hash(), blk.Height, blk.Hash())
		}
		return nil
	}); err != nil {
		return err
	}
	return d.mem.Verify()
}

// checkSnapshot cross-checks a checkpoint against the replayed chain.
func (d *DurableLedger) checkSnapshot(snap *Snapshot) error {
	if snap.Height > d.mem.Height() {
		return fmt.Errorf("%w: checkpoint at height %d but WAL replays only %d blocks",
			ErrSnapshotMismatch, snap.Height, d.mem.Height())
	}
	if snap.Height == 0 {
		return nil
	}
	if snap.Height == d.mem.Base() {
		// The base snapshot IS the chain's anchor below the rebased
		// journal: block Height-1 is summarized, not materialized, and the
		// ledger was constructed from this snapshot's head hash.
		if snap.HeadHash != d.mem.BaseHash() {
			return fmt.Errorf("%w: base checkpoint at height %d does not anchor the rebased chain",
				ErrSnapshotMismatch, snap.Height)
		}
		return nil
	}
	if snap.Height < d.mem.Base() {
		return fmt.Errorf("%w: checkpoint at height %d is below the rebased journal (base %d)",
			ErrSnapshotMismatch, snap.Height, d.mem.Base())
	}
	blk := d.mem.Get(snap.Height - 1)
	if blk.Hash() != snap.HeadHash || blk.StateHash != snap.StateDigest {
		return fmt.Errorf("%w: checkpoint at height %d does not match the journaled block",
			ErrSnapshotMismatch, snap.Height)
	}
	return nil
}

// Memory returns the in-memory ledger view (reads: Height, Get, Head,
// Verify). Mutate only through DurableLedger.Append. A state-transfer
// install replaces the ledger object: long-lived readers should re-fetch
// rather than cache the pointer.
func (d *DurableLedger) Memory() *ledger.Ledger {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem
}

// LatestSnapshot returns the newest validated checkpoint, or nil.
func (d *DurableLedger) LatestSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snap
}

// Append is AppendAsync plus the wait: it returns once a commit point covers
// the block's record (or the journal failed). The ledger's lock is released
// before the wait, so other callers keep appending behind it. An error is
// fatal for the replica: the in-memory chain may then be ahead of disk, so
// the caller must stop journaling rather than continue with a silent
// durability gap.
func (d *DurableLedger) Append(batch *types.Batch, proof ledger.Proof, state types.Digest) (*ledger.Block, error) {
	done := make(chan error, 1)
	blk := d.AppendAsync(batch, proof, state, func(_ uint64, err error) { done <- err })
	return blk, <-done
}

// AppendAsync is the journaling path: the block joins the in-memory chain
// and is handed to the background committer without waiting for the disk.
// The lock spans both steps so WAL record order always equals chain order,
// whatever goroutine calls here. done fires exactly once — from the
// committer, carrying the durable LSN, once a commit point covers the
// record; inline with the sticky error when the journal has already failed
// (the block is then ahead of disk and the caller must stop journaling,
// same contract as Append). done runs on the committer goroutine: keep it
// short and do not call back into the ledger from it. AppendAsync blocks
// while AsyncQueueDepth blocks are in flight.
func (d *DurableLedger) AppendAsync(batch *types.Batch, proof ledger.Proof, state types.Digest, done func(lsn uint64, err error)) *ledger.Block {
	d.mu.Lock()
	defer d.mu.Unlock()
	blk := d.mem.Append(batch, proof, state)
	d.enc = ledger.AppendBlock(d.enc[:0], blk)
	if _, err := d.async.Submit(d.enc, done); err != nil {
		done(0, err) // Submit never ran the callback; fail it here
	}
	return blk
}

// Snapshot persists appState as a checkpoint at the current chain head
// (§III-D durable counterpart of RCC's dynamic checkpoints). It is a no-op
// on an empty chain. The WAL is synced first so a durable checkpoint is
// never ahead of the durable journal — otherwise a crash under
// wal.SyncNone (buffered journal, fsynced checkpoint) would leave a data
// dir that can never reopen.
func (d *DurableLedger) Snapshot(appState []byte) error {
	d.mu.Lock()
	head := d.mem.Head()
	txns := d.mem.TxnCount()
	d.mu.Unlock()
	if head == nil {
		return nil
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	snap := &Snapshot{
		Height:      head.Height + 1,
		HeadHash:    head.Hash(),
		StateDigest: head.StateHash,
		TxnCount:    txns,
		AppState:    appState,
	}
	if err := d.snaps.Save(snap); err != nil {
		return err
	}
	d.mu.Lock()
	d.snap = snap
	d.mu.Unlock()
	if d.opts.PruneWAL {
		d.pruneWAL(snap.Height)
	}
	return nil
}

// pruneWAL reclaims the records checkpoint height h summarizes: roll the
// active segment so a boundary lands exactly after record h (block h-1),
// then drop every whole segment below it. When the prune lands the base at
// exactly h (it always does unless an append slipped between the head read
// and the roll), the checkpoint is pinned so retention can never delete the
// only record of the summarized prefix — the invariant Open's rebase path
// checks. A prune that cannot advance the base is skipped silently: it is a
// space optimization, never a correctness requirement.
func (d *DurableLedger) pruneWAL(h uint64) {
	if err := d.log.Roll(); err != nil {
		return
	}
	// Prune's error is ignored here: it can fail after removing segments (at
	// the directory sync, which poisons the log, so the next append reports
	// it), and a base those removals moved must still be pinned.
	_ = d.log.Prune(h + 1)
	if d.log.Base()-1 == h {
		d.mu.Lock()
		d.snaps.Pin(h)
		d.mu.Unlock()
	}
}

// RestoreApp brings app to the chain head's state: from the latest
// consistent checkpoint when app implements Snapshotter (re-executing only
// the blocks after it), otherwise by re-executing the whole journal. It
// verifies the final application digest against the head block's StateHash
// and returns the total number of transactions the chain carries (for
// priming executed-transaction counters).
func (d *DurableLedger) RestoreApp(app exec.Application) (uint64, error) {
	var from uint64
	if _, ok := app.(Snapshotter); !ok && d.mem.Base() > 0 {
		// The blocks below the base exist only inside the base snapshot's
		// application state; an application that cannot restore snapshots
		// cannot be rebuilt from a rebased journal.
		return 0, fmt.Errorf("%w: journal is rebased to height %d but the application does not restore snapshots",
			ErrSnapshotMismatch, d.mem.Base())
	}
	if snapper, ok := app.(Snapshotter); ok && d.snap != nil {
		if err := snapper.Restore(d.snap.AppState); err != nil {
			return 0, fmt.Errorf("store: restoring checkpoint at height %d: %w", d.snap.Height, err)
		}
		if app.StateDigest() != d.snap.StateDigest {
			return 0, fmt.Errorf("%w: restored application digest differs at height %d",
				ErrSnapshotMismatch, d.snap.Height)
		}
		from = d.snap.Height
	}
	for h := from; h < d.mem.Height(); h++ {
		blk := d.mem.Get(h)
		for i := range blk.Batch.Txns {
			app.Execute(blk.Batch.Txns[i])
		}
		if app.StateDigest() != blk.StateHash {
			return 0, fmt.Errorf("store: replay diverged at height %d: application digest does not match the journaled StateHash", h)
		}
	}
	return d.mem.TxnCount(), nil
}

// Sync forces all journaled blocks to durable storage. The blocks are
// already in the log's buffer (AppendAsync writes before it returns), so
// this also covers every block still awaiting its completion callback —
// which the committer will still deliver.
func (d *DurableLedger) Sync() error { return d.WAL().Sync() }

// WAL exposes the underlying log (stats, pruning, tests). A state-transfer
// install replaces it: resolve it per use rather than caching the pointer.
func (d *DurableLedger) WAL() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

// Appender exposes the log's committer (stats, tests). Like WAL, resolve it
// per use: an install replaces it.
func (d *DurableLedger) Appender() *wal.Appender {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.async
}

// Close drains the committer — every in-flight block gets its commit point
// and its completion callback before Close returns — then flushes and closes
// the journal.
func (d *DurableLedger) Close() error {
	err := d.async.Close()
	cerr := d.log.Close()
	if err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return cerr
}

// CloseAbrupt closes the ledger the way a crash would: in-flight blocks get
// no commit point and no callbacks, and the log's write buffer is discarded.
// Crash-realism test helper.
func (d *DurableLedger) CloseAbrupt() {
	d.async.CloseAbrupt()
	d.log.CloseAbrupt()
}
