package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// appendBlocks executes n single-transaction batches against app and
// journals them through d, mirroring what the execution engine does.
func appendBlocks(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		batch := &types.Batch{Txns: []types.Transaction{{
			Client: 1, Seq: uint64(start + i + 1),
			Op: ycsb.EncodeWrite(uint32(start+i), []byte(fmt.Sprintf("v%d", start+i))),
		}}}
		for j := range batch.Txns {
			app.Execute(batch.Txns[j])
		}
		proof := ledger.Proof{Round: types.Round(start + i + 1), Digest: batch.Digest(), Signers: []types.ReplicaID{0, 1, 2}}
		if _, err := d.Append(batch, proof, app.StateDigest()); err != nil {
			t.Fatalf("append block %d: %v", start+i, err)
		}
	}
}

func openStore(t *testing.T, dir string) *DurableLedger {
	t.Helper()
	d, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestRestoreAppRebuildsStateWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 5)
	want := app.StateDigest()
	d.Close()

	d2 := openStore(t, dir)
	fresh := ycsb.NewStore(64)
	txns, err := d2.RestoreApp(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if txns != 5 {
		t.Fatalf("restored %d txns, want 5", txns)
	}
	if fresh.StateDigest() != want {
		t.Fatal("full-replay restore diverged from pre-crash state")
	}
}

func TestRestoreAppResumesFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 4)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d, app, 4, 3)
	want := app.StateDigest()
	d.Close()

	d2 := openStore(t, dir)
	snap := d2.LatestSnapshot()
	if snap == nil || snap.Height != 4 {
		t.Fatalf("snapshot not recovered: %+v", snap)
	}
	fresh := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != want {
		t.Fatal("snapshot-based restore diverged from pre-crash state")
	}
}

func TestTornWALTailIsDroppedOnReopen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 6)
	d.Close()

	// Crash mid-append: the last block's record loses its final bytes.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.wal"))
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	d2 := openStore(t, dir)
	if d2.Memory().Height() != 5 {
		t.Fatalf("height %d after torn tail, want 5", d2.Memory().Height())
	}
	if d2.WAL().Truncated() != 1 {
		t.Fatalf("Truncated() = %d, want 1", d2.WAL().Truncated())
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlippedWALRecordRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 6)
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.wal"))
	sort.Strings(segs)
	data, _ := os.ReadFile(segs[0])
	// Flip one bit inside block 2's batch payload — mid-segment, with
	// intact records after it, so it can never pass as a torn tail.
	i := bytesIndex(data, "v2")
	if i < 0 {
		t.Fatal("block 2 payload not found")
	}
	data[i] ^= 0x20
	os.WriteFile(segs[0], data, 0o644)

	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over bit-flipped record: %v, want wal.ErrCorrupt", err)
	}
}

func TestSnapshotAheadOfWALRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Lose the WAL (e.g. the operator restored the wrong volume): the
	// checkpoint now claims a height the journal never reached.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("open with snapshot ahead of WAL: %v, want ErrSnapshotMismatch", err)
	}
}

func TestForeignSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	d.Close()

	// Plant a checkpoint from a DIFFERENT chain at a height the WAL does
	// reach: heights agree, hashes must not.
	snaps, err := OpenSnapshots(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(&Snapshot{
		Height:      2,
		HeadHash:    types.Hash([]byte("some other replica's block")),
		StateDigest: types.Hash([]byte("some other replica's state")),
		AppState:    ycsb.NewStore(64).Snapshot(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("open with foreign snapshot: %v, want ErrSnapshotMismatch", err)
	}
}

// TestLyingProofDigestRefusesReopen: the ledger takes a block's batch digest
// from its commit proof, so a proof digest that does not cover the batch
// makes a chain the audit refuses — live, and on reopen of its journal.
func TestLyingProofDigestRefusesReopen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 2)
	lying := &types.Batch{Txns: []types.Transaction{{Client: 2, Seq: 1, Op: []byte("swapped in")}}}
	proof := ledger.Proof{Round: 3, Digest: types.Hash([]byte("some other proposal"))}
	if _, err := d.Append(lying, proof, app.StateDigest()); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d, app, 3, 1)
	if err := d.Memory().Verify(); err == nil {
		t.Fatal("chain with a lying proof digest verified")
	}
	d.Close()
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); err == nil {
		t.Fatal("journal with a lying proof digest reopened")
	}
}

// TestJournalHashedFromBatchesReplays: a journal whose block hashes were
// computed by re-hashing every batch — independently of the ledger package,
// from the definition H(height ‖ prev ‖ H(batch encoding) ‖ state) — reopens
// to the same head hash, and a checkpoint naming that head still matches.
func TestJournalHashedFromBatchesReplays(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	var prev types.Digest
	const blocks = 4
	for h := uint64(0); h < blocks; h++ {
		batch := &types.Batch{Txns: []types.Transaction{
			{Client: 1, Seq: 2*h + 1, Op: ycsb.EncodeWrite(uint32(h), []byte("a"))},
			{Client: 2, Seq: 2*h + 2, Op: ycsb.EncodeWrite(uint32(h+9), []byte("bb"))},
		}}
		for i := range batch.Txns {
			app.Execute(batch.Txns[i])
		}
		state := app.StateDigest()
		blk := &ledger.Block{Height: h, PrevHash: prev, Batch: batch, StateHash: state,
			Proof: ledger.Proof{Round: types.Round(h + 1), Digest: batch.Digest()}}
		if _, err := log.Append(ledger.EncodeBlock(blk)); err != nil {
			t.Fatal(err)
		}
		enc := binary.BigEndian.AppendUint64(nil, h)
		enc = append(enc, prev[:]...)
		bd := sha256.Sum256(batch.Marshal(nil))
		enc = append(enc, bd[:]...)
		enc = append(enc, state[:]...)
		prev = sha256.Sum256(enc)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := OpenSnapshots(filepath.Join(dir, ckpDirName))
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(&Snapshot{Height: blocks, HeadHash: prev, StateDigest: app.StateDigest(),
		TxnCount: 2 * blocks, AppState: app.Snapshot()}); err != nil {
		t.Fatal(err)
	}

	d := openStore(t, dir)
	if h, head := d.Memory().Tip(); h != blocks || head != prev {
		t.Fatalf("reopened at height %d head %v, want %d head %v", h, head, blocks, prev)
	}
	if snap := d.LatestSnapshot(); snap == nil || snap.Height != blocks {
		t.Fatalf("checkpoint naming the head refused: %+v", snap)
	}
	// New blocks chain onto the replayed head.
	appendBlocks(t, d, app, 100, 1)
	if err := d.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotStoreRetentionAndFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h <= 5; h++ {
		if err := s.Save(&Snapshot{Height: h, AppState: []byte{byte(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	hs, _ := s.heights()
	if len(hs) != 2 || hs[0] != 4 || hs[1] != 5 {
		t.Fatalf("retention kept %v, want [4 5]", hs)
	}
	// Bitrot in the newest generation: Latest falls back to the older
	// one (the WAL covers the difference).
	data, _ := os.ReadFile(s.path(5))
	data[len(data)-1] ^= 0xff
	os.WriteFile(s.path(5), data, 0o644)
	snap, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Height != 4 {
		t.Fatalf("latest after bitrot = %+v, want height 4", snap)
	}
}

func bytesIndex(data []byte, marker string) int { return bytes.Index(data, []byte(marker)) }

func TestSnapshotRoundTripsAppState(t *testing.T) {
	app := ycsb.NewStore(32)
	app.Execute(types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(3, []byte("x"))})
	restored := ycsb.NewStore(32)
	if err := restored.Restore(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.StateDigest() != app.StateDigest() {
		t.Fatal("ycsb snapshot round trip diverged")
	}
}
