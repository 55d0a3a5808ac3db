package store

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/ycsb"
)

// walSegments returns dir's WAL segment files in index order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	return segs
}

// TestDurableBodiesLiveInTheWAL: once a block's record is durable the
// ledger holds only its header, and every read of the block comes back
// from the WAL identical to what was appended.
func TestDurableBodiesLiveInTheWAL(t *testing.T) {
	d := openStore(t, t.TempDir())
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 8)
	mem := d.Memory()
	if mem.Retained() != 0 {
		t.Fatalf("%d bodies retained after their appends completed", mem.Retained())
	}
	for h := uint64(0); h < 8; h++ {
		blk := mem.Get(h)
		if blk == nil {
			t.Fatalf("block %d does not read back", h)
		}
		if blk.Batch.Digest() != blk.Proof.Digest || blk.Batch.Txns[0].Seq != h+1 {
			t.Fatalf("block %d read back a different batch", h)
		}
	}
	if err := mem.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalFailureReleasesNothing: a block whose record never became
// durable keeps its body in memory: the journal error leaves the ledger
// ahead of disk, and nothing may be read back from a record that is not
// there.
func TestJournalFailureReleasesNothing(t *testing.T) {
	fp := &wal.Failpoints{}
	d, err := Open(t.TempDir(), Options{Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	defer d.CloseAbrupt()
	app := ycsb.NewStore(64)
	fp.FailFsync(errors.New("injected EIO"))
	acked, wait := appendBlocksAsync(t, d, app, 0, 5)
	wait()
	if len(acked()) != 0 {
		t.Fatal("a block was acknowledged over a failing journal")
	}
	if got := d.Memory().Retained(); got != 5 {
		t.Fatalf("%d of 5 bodies retained after the journal failed", got)
	}
	for h := uint64(0); h < 5; h++ {
		if d.Memory().Get(h) == nil {
			t.Fatalf("block %d lost its body", h)
		}
	}
}

// TestReopenRetainsNoBodies: Open's replay audits every block and keeps
// only headers, and RestoreApp, reading every body back from the WAL,
// reaches the pre-restart state digest.
func TestReopenRetainsNoBodies(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 12)
	want := app.StateDigest()
	d.Close()

	d2 := openStore(t, dir)
	if n := d2.Memory().Retained(); n != 0 {
		t.Fatalf("reopen retained %d bodies", n)
	}
	fresh := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != want {
		t.Fatal("restored state differs from the pre-restart state")
	}
	if n := d2.Memory().Retained(); n != 0 {
		t.Fatalf("restore retained %d bodies", n)
	}
}

// TestReleasedRecordDamage: a bit flip inside a record whose body was
// released makes that block unreadable live (Get returns nil, Verify
// names it) and makes the reopen refuse the journal as corrupt, while a
// torn tail after releases is still truncated.
func TestReleasedRecordDamage(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 6)

	seg := walSegments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytesIndex(data, "v2")
	if i < 0 {
		t.Fatal("block 2 payload not found")
	}
	data[i] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mem := d.Memory()
	if mem.Get(2) != nil {
		t.Fatal("a damaged record read back as a block")
	}
	if mem.Get(3) == nil {
		t.Fatal("the intact record after the damage does not read back")
	}
	if err := mem.Verify(); err == nil || !strings.Contains(err.Error(), "block 2") {
		t.Fatalf("verify: %v, want an error naming block 2", err)
	}
	d.Close()
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("reopen over a damaged record: %v, want wal.ErrCorrupt", err)
	}

	// Torn tail: repair the flip, then cut the last record short.
	data[i] ^= 0x20
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openStore(t, dir)
	if h := d2.Memory().Height(); h != 5 || d2.WAL().Truncated() != 1 {
		t.Fatalf("torn tail reopened at height %d (truncated %d), want 5 (1)", h, d2.WAL().Truncated())
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAckedBlocksReadBackAfterCrash: every block whose append was
// acknowledged reads back after a kill and reopen, with a batch that
// hashes to its header's proof digest.
func TestAckedBlocksReadBackAfterCrash(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{AsyncQueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	acked, _ := appendBlocksAsync(t, d, app, 0, 40)
	d.CloseAbrupt()
	ok := acked()
	if len(ok) == 0 {
		t.Fatal("no block acknowledged before the crash")
	}

	d2 := openStore(t, dir)
	for h := range ok {
		blk := d2.Memory().Get(h)
		if blk == nil {
			t.Fatalf("acknowledged block %d does not read back", h)
		}
		if blk.Proof.Digest.IsZero() || blk.Batch.Digest() != blk.Proof.Digest {
			t.Fatalf("acknowledged block %d reads back a batch its proof does not cover", h)
		}
	}
}

// TestPruneRebasesLedger: a WAL prune at a checkpoint drops the pruned
// blocks' headers too — the ledger starts at the checkpoint, as after an
// install — while heights, head and transaction count stay, and a reopen
// lands on the same base.
func TestPruneRebasesLedger(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNone, PruneWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 8)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d, app, 8, 3)
	mem := d.Memory()
	height, head := mem.Tip()
	if mem.Base() != 8 || mem.Get(7) != nil || mem.Get(8) == nil {
		t.Fatalf("ledger base %d after a prune at checkpoint 8", mem.Base())
	}
	if height != 11 || mem.TxnCount() != 11 {
		t.Fatalf("prune moved height %d or count %d", height, mem.TxnCount())
	}
	if err := mem.Verify(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2 := openStore(t, dir)
	if d2.Memory().Base() != 8 || d2.Memory().HeadHash() != head {
		t.Fatalf("reopen at base %d", d2.Memory().Base())
	}
	fresh := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != app.StateDigest() {
		t.Fatal("restore over a pruned journal reached a different state")
	}
}

// TestAppendAsyncConcurrentWithReads: the event loop appends while other
// goroutines (state-transfer serving, auditors) read and verify the chain
// as bodies are released under them. Run under -race.
func TestAppendAsyncConcurrentWithReads(t *testing.T) {
	d := openStore(t, t.TempDir())
	app := ycsb.NewStore(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mem := d.Memory()
				if h := mem.Height(); h > 0 {
					if blk := mem.Get(h - 1); blk == nil || blk.Batch == nil {
						t.Errorf("block %d unreadable while appends run", h-1)
						return
					}
				}
				if err := mem.Verify(); err != nil {
					t.Errorf("verify while appends run: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	_, wait := appendBlocksAsync(t, d, app, 0, 200)
	wait()
	close(stop)
	wg.Wait()
	if n := d.Memory().Retained(); n != 0 {
		t.Fatalf("%d bodies retained after every append completed", n)
	}
}
