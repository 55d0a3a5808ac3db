package store

// State-transfer install: atomically replace a replica's durable state with
// a snapshot plus ledger suffix fetched (and verified) from peers.
//
// The install is crash-atomic via staging and a commit marker:
//
//  1. The complete new state — a rebased WAL whose first record index is
//     snapshot-height+1 holding the block suffix, and a checkpoint
//     directory holding the base snapshot — is staged under
//     dir/statesync-incoming. A crash here leaves the live dirs untouched;
//     the next Open discards the staging area.
//  2. A commit marker (dir/statesync-commit) is written atomically. The
//     marker is the commit point: before it exists the old state is
//     authoritative, after it exists the staged state is.
//  3. The staged dirs are swapped into place and the marker removed. A
//     crash anywhere in this step is rolled forward by the next Open
//     (finishInstall is idempotent).
//
// A kill -9 at ANY point therefore leaves the data dir openable: either the
// pre-transfer state (uncommitted) or the fully installed one (committed).

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ledger"
	"repro/internal/wal"
)

const (
	incomingDir   = "statesync-incoming"
	commitMarker  = "statesync-commit"
	walDirName    = "wal"
	ckpDirName    = "checkpoints"
	retiredSuffix = ".old"
)

// recoverInstall completes or discards an interrupted install; called by
// Open before anything else touches the directory.
func recoverInstall(dir string) error {
	marker := filepath.Join(dir, commitMarker)
	if _, err := os.Stat(marker); err == nil {
		return finishInstall(dir)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	// No commit marker: the live dirs are authoritative. Clear any staging
	// or cleanup leftovers from an abandoned or almost-finished install.
	if err := os.RemoveAll(filepath.Join(dir, incomingDir)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, name := range []string{walDirName, ckpDirName} {
		if err := os.RemoveAll(filepath.Join(dir, name+retiredSuffix)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// finishInstall swaps the staged dirs into place. Idempotent: every step
// checks what a previous (crashed) attempt already did.
func finishInstall(dir string) error {
	incoming := filepath.Join(dir, incomingDir)
	for _, name := range []string{walDirName, ckpDirName} {
		staged := filepath.Join(incoming, name)
		live := filepath.Join(dir, name)
		retired := live + retiredSuffix
		if _, err := os.Stat(staged); os.IsNotExist(err) {
			continue // already swapped by a previous attempt
		}
		if err := os.RemoveAll(retired); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := os.Stat(live); err == nil {
			if err := os.Rename(live, retired); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		if err := os.Rename(staged, live); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, commitMarker)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	for _, name := range []string{walDirName, ckpDirName} {
		if err := os.RemoveAll(filepath.Join(dir, name+retiredSuffix)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return os.RemoveAll(incoming)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// InstallState atomically replaces the durable state with snap (the new
// chain base) plus the block suffix at heights [snap.Height,
// snap.Height+len(blocks)). On success the ledger is rebased: Height
// resumes at the end of the suffix, blocks below snap.Height are
// summarized by the snapshot, and the WAL's first record index is
// snap.Height+1. The caller must guarantee no concurrent appends (the
// replica runtime runs installs on its event loop).
//
// On a staging error the previous state is untouched and still open. Once
// the commit marker is written the install only rolls forward; an error
// after that point leaves the store closed and the caller must reopen.
func (d *DurableLedger) InstallState(snap *Snapshot, blocks []*ledger.Block) error {
	if snap == nil {
		return fmt.Errorf("store: install requires a snapshot")
	}
	// Audit the suffix onto the snapshot before any disk mutation. (The
	// statesync fetcher has already verified the contents against the
	// f+1-attested digests; this re-check is the store's own invariant.)
	mem := ledger.NewAt(snap.Height, snap.HeadHash, snap.TxnCount)
	for _, blk := range blocks {
		if err := appendAudited(mem, blk); err != nil {
			return fmt.Errorf("store: install %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	// Stage the complete new state. The live dirs and the open log are
	// untouched until the staging is complete and fsynced.
	incoming := filepath.Join(d.dir, incomingDir)
	if err := os.RemoveAll(incoming); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	stagedWAL, err := wal.Open(filepath.Join(incoming, walDirName), wal.Options{
		Sync:       d.opts.Sync,
		FirstIndex: snap.Height + 1,
		Failpoints: d.opts.Failpoints,
	})
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		if _, err := stagedWAL.AppendNoSync(ledger.EncodeBlock(blk)); err != nil {
			stagedWAL.Close()
			return err
		}
	}
	if err := stagedWAL.Close(); err != nil { // flushes and fsyncs
		return err
	}
	stagedCkp := filepath.Join(incoming, ckpDirName)
	stagedSnaps, err := OpenSnapshots(stagedCkp)
	if err != nil {
		return err
	}
	if err := stagedSnaps.Save(snap); err != nil {
		return err
	}
	// Make every staged directory ENTRY durable before the commit marker:
	// the segment file's contents are fsynced by the staged log's Close and
	// the snapshot by writeFileAtomic, but their filenames live in the
	// staged directories — without these fsyncs a crash right after the
	// marker could roll forward to a wal dir whose segment vanished.
	if err := syncDir(filepath.Join(incoming, walDirName)); err != nil {
		return err
	}
	if err := syncDir(stagedCkp); err != nil {
		return err
	}
	if err := syncDir(incoming); err != nil {
		return err
	}

	// Drain and close the live journal before the swap; its files are about
	// to be retired. From here on a failure leaves the store closed but the
	// directory consistent (pre-marker: old state; post-marker: new).
	d.async.Close()
	d.log.Close()

	// Commit point.
	if err := writeFileAtomic(d.dir, filepath.Join(d.dir, commitMarker), []byte("statesync\n")); err != nil {
		return err
	}
	if err := finishInstall(d.dir); err != nil {
		return err
	}

	// Reopen on the installed state.
	if err := d.openJournal(); err != nil {
		return err
	}
	d.snaps, err = OpenSnapshots(filepath.Join(d.dir, ckpDirName))
	if err != nil {
		return err
	}
	d.snaps.Pin(snap.Height)
	d.mem = d.readsLog(mem)
	for _, blk := range blocks {
		mem.Release(blk.Height) // the staged log was fsynced before the swap
	}
	d.snap = snap
	return nil
}

// InstallBlocks extends the chain with already-decided blocks fetched from
// peers (the catch-up path of a replica that lagged but was not wiped: no
// snapshot needed, the local prefix is intact). Each block must chain onto
// the current head; everything is journaled under a single fsync. A crash
// mid-call leaves a consistent prefix (the WAL's torn tail is truncated on
// reopen). The caller must guarantee no concurrent appends.
func (d *DurableLedger) InstallBlocks(blocks []*ledger.Block) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, blk := range blocks {
		if err := appendAudited(d.mem, blk); err != nil {
			return fmt.Errorf("store: catch-up %w", err)
		}
		if _, err := d.log.AppendNoSync(ledger.EncodeBlock(blk)); err != nil {
			return err
		}
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	for _, blk := range blocks {
		d.mem.Release(blk.Height)
	}
	return nil
}
