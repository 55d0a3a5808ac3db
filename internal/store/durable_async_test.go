package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// appendBlocksAsync mirrors appendBlocks over the pipelined path and
// returns the set of heights whose completion callback reported durable.
func appendBlocksAsync(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) (acked func() map[uint64]bool, wait func()) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[uint64]bool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		batch := &types.Batch{Txns: []types.Transaction{{
			Client: 1, Seq: uint64(start + i + 1),
			Op: ycsb.EncodeWrite(uint32(start+i), []byte(fmt.Sprintf("v%d", start+i))),
		}}}
		for j := range batch.Txns {
			app.Execute(batch.Txns[j])
		}
		proof := ledger.Proof{Round: types.Round(start + i + 1), Digest: batch.Digest(), Signers: []types.ReplicaID{0, 1, 2}}
		wg.Add(1)
		blk := d.AppendAsync(batch, proof, app.StateDigest(), func(h uint64) func(uint64, error) {
			return func(lsn uint64, err error) {
				defer wg.Done()
				if err != nil {
					return
				}
				mu.Lock()
				got[h] = true
				mu.Unlock()
			}
		}(uint64(start+i)))
		if blk.Height != uint64(start+i) {
			t.Fatalf("block landed at height %d, want %d", blk.Height, start+i)
		}
	}
	return func() map[uint64]bool {
			mu.Lock()
			defer mu.Unlock()
			cp := make(map[uint64]bool, len(got))
			for k, v := range got {
				cp[k] = v
			}
			return cp
		}, func() {
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("async completions never arrived")
			}
		}
}

// entryPoints are the two ways a caller journals a block — Append (wait for
// the commit point) and AppendAsync (completion callback). Both run the one
// durability path, so every reopen/crash/failure case below takes the entry
// point as an input. journal appends n blocks; acked reports the heights
// whose durability was reported so far, wait blocks until all n were.
var entryPoints = []struct {
	name    string
	journal func(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) (acked func() map[uint64]bool, wait func())
}{
	{"Append", func(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) (func() map[uint64]bool, func()) {
		appendBlocks(t, d, app, start, n) // returns only once every block is durable
		got := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			got[uint64(start+i)] = true
		}
		return func() map[uint64]bool { return got }, func() {}
	}},
	{"AppendAsync", appendBlocksAsync},
}

func TestAppendsSurviveReopen(t *testing.T) {
	for _, e := range entryPoints {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, Options{AsyncQueueDepth: 16})
			if err != nil {
				t.Fatal(err)
			}
			app := ycsb.NewStore(64)
			acked, wait := e.journal(t, d, app, 0, 25)
			wait()
			if got := len(acked()); got != 25 {
				t.Fatalf("%d heights acked, want 25", got)
			}
			if e.name == "AppendAsync" {
				// The whole point of the pipeline: far fewer fsyncs than blocks
				// from a single sequential appender that does not stop to wait.
				if appends, syncs := d.WAL().Stats(); syncs >= appends {
					t.Fatalf("no amortization: %d fsyncs for %d appends", syncs, appends)
				}
			}
			head := d.Memory().Head()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2 := openStore(t, dir)
			if d2.Memory().Height() != 25 {
				t.Fatalf("reopened at height %d, want 25", d2.Memory().Height())
			}
			if d2.Memory().Head().Hash() != head.Hash() {
				t.Fatal("head hash changed across reopen")
			}
			if err := d2.Memory().Verify(); err != nil {
				t.Fatalf("replayed chain fails audit: %v", err)
			}
			// The journal keeps accepting blocks after a restart.
			app2 := ycsb.NewStore(64)
			if _, err := d2.RestoreApp(app2); err != nil {
				t.Fatal(err)
			}
			_, wait = e.journal(t, d2, app2, 25, 3)
			wait()
			if d2.Memory().Height() != 28 {
				t.Fatalf("height %d after post-restart appends, want 28", d2.Memory().Height())
			}
		})
	}
}

// TestCrashNeverLosesAckedBlocks is the crash acceptance test: kill the
// ledger without a drain and verify the restart replays a verified prefix
// containing every block whose durability was reported.
func TestCrashNeverLosesAckedBlocks(t *testing.T) {
	for _, e := range entryPoints {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, Options{AsyncQueueDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			app := ycsb.NewStore(64)
			acked, _ := e.journal(t, d, app, 0, 40)
			// No drain: crash with whatever is still in flight.
			d.CloseAbrupt()
			ok := acked()

			d2 := openStore(t, dir)
			if err := d2.Memory().Verify(); err != nil {
				t.Fatalf("post-crash chain fails audit: %v", err)
			}
			h := d2.Memory().Height()
			for height := range ok {
				if height >= h {
					t.Fatalf("acked height %d lost: restart replays only %d blocks", height, h)
				}
			}
			// The replayed prefix must re-execute to a journaled state digest.
			fresh := ycsb.NewStore(64)
			if _, err := d2.RestoreApp(fresh); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncSnapshotNeverOutrunsJournal takes a checkpoint while blocks are
// still in flight: the checkpoint must only claim heights the journal holds
// durably, so the reopen must accept the pair.
func TestAsyncSnapshotNeverOutrunsJournal(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{AsyncQueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	_, wait := appendBlocksAsync(t, d, app, 0, 10)
	// Snapshot immediately — in-flight blocks must not invalidate it.
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	wait()
	d.CloseAbrupt() // even across a crash, checkpoint and journal agree

	d2 := openStore(t, dir)
	if snap := d2.LatestSnapshot(); snap == nil {
		t.Fatal("checkpoint not recovered")
	}
}

// TestAppendFailureIsSticky kills the journal out from under the committer:
// every later append must report the error through its entry point's own
// channel (Append's return, AppendAsync's callback); none may claim
// durability.
func TestAppendFailureIsSticky(t *testing.T) {
	for _, e := range entryPoints {
		t.Run(e.name, func(t *testing.T) {
			d, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			app := ycsb.NewStore(64)
			_, wait := e.journal(t, d, app, 0, 3)
			wait()
			d.WAL().Close()
			errs := make(chan error, 1)
			batch := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 99, Op: ycsb.EncodeWrite(1, []byte("x"))}}}
			app.Execute(batch.Txns[0])
			proof := ledger.Proof{Round: 99, Digest: batch.Digest()}
			if e.name == "Append" {
				go func() {
					_, err := d.Append(batch, proof, app.StateDigest())
					errs <- err
				}()
			} else {
				d.AppendAsync(batch, proof, app.StateDigest(), func(lsn uint64, err error) { errs <- err })
			}
			select {
			case err := <-errs:
				if err == nil {
					t.Fatal("append over a dead journal reported durable")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no completion after journal death")
			}
			d.CloseAbrupt()
		})
	}
}

// TestAppendWaitsForCommitPointWithoutHoldingLock parks the committer inside
// the commit hook — after the fsync, before the completion callbacks — and
// checks the two halves of Append's contract: it has not returned while its
// record's commit point is still open, and it is not holding the ledger's
// lock while it waits (readers and further appends proceed).
func TestAppendWaitsForCommitPointWithoutHoldingLock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	d, err := Open(t.TempDir(), Options{AsyncOnCommit: func(int, int64, time.Duration) {
		gate.Do(func() { close(entered); <-release })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mkBatch := func(seq uint64) (*types.Batch, ledger.Proof) {
		b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: seq, Op: ycsb.EncodeWrite(1, []byte("x"))}}}
		return b, ledger.Proof{Round: types.Round(seq), Digest: b.Digest()}
	}
	var released atomic.Bool
	returned := make(chan bool, 1) // carries: had the gate been released when Append returned?
	go func() {
		b, proof := mkBatch(1)
		if _, err := d.Append(b, proof, types.Digest{}); err != nil {
			t.Errorf("append: %v", err)
		}
		returned <- released.Load()
	}()
	<-entered // block 1's commit point is open and parked

	unlocked := make(chan struct{})
	go func() {
		defer close(unlocked)
		if h := d.Memory().Height(); h != 1 { // takes d.mu
			t.Errorf("height %d while Append waits, want 1", h)
		}
		b, proof := mkBatch(2)
		d.AppendAsync(b, proof, types.Digest{}, func(uint64, error) {}) // takes d.mu
	}()
	select {
	case <-unlocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Append holds the ledger lock while it waits for its commit point")
	}
	select {
	case <-returned:
		t.Fatal("Append returned while its record's commit point was still open")
	default:
	}
	released.Store(true)
	close(release)
	select {
	case after := <-returned:
		if !after {
			t.Fatal("Append returned before its record's commit point completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append never returned after its commit point completed")
	}
}

func TestIdentityStampRefusesForeignDataDir(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	d.Close()

	// Same replica reopens fine.
	d2, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatalf("same-identity reopen: %v", err)
	}
	d2.Close()

	// A different replica must be refused: this chain is replica-0's
	// voting history, not replica-2's.
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-2"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("foreign-identity reopen: %v, want ErrDataDirMismatch", err)
	}
}

func TestIdentityStampRefusesNewerFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Forge a stamp from the future.
	forged := fmt.Sprintf("RCCDIR %d\nreplica %s\n", formatVersion+1, "replica-0")
	if err := os.WriteFile(filepath.Join(dir, identityFile), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("newer-format reopen: %v, want ErrDataDirMismatch", err)
	}
}

func TestIdentityStampAdoptedByUnnamedDir(t *testing.T) {
	dir := t.TempDir()
	// First open with no identity (e.g. a direct store test), then a named
	// replica adopts the dir; a different name is then refused.
	d, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-1"})
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-3"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("post-adoption foreign reopen: %v, want ErrDataDirMismatch", err)
	}
}

// TestAppendAsyncAllocsFlatInBatchSize: AppendAsync encodes each block into
// a buffer the ledger reuses, sized from the batch, so its steady-state
// allocations per append do not grow from a 4- to a 400-transaction batch.
// testing.AllocsPerRun counts every goroutine's allocations, so each
// sampled append waits for its commit callback: the WAL committer's work
// for it (commit point, ledger release) lands inside the sample, never
// partly in the next one, and the count is the same on every run.
func TestAppendAsyncAllocsFlatInBatchSize(t *testing.T) {
	perAppend := func(n int) float64 {
		d, err := Open(t.TempDir(), Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		batch := &types.Batch{Txns: make([]types.Transaction, n)}
		for i := range batch.Txns {
			batch.Txns[i] = types.Transaction{Client: 1, Seq: uint64(i + 1), Op: make([]byte, 69)}
		}
		proof := ledger.Proof{Round: 1, Digest: batch.Digest(), Signers: []types.ReplicaID{0, 1, 2}}
		committed := make(chan struct{}, 1)
		done := func(uint64, error) { committed <- struct{}{} }
		appendOne := func() {
			d.AppendAsync(batch, proof, types.Digest{}, done)
			<-committed
		}
		appendOne() // sizes the buffer
		return testing.AllocsPerRun(200, appendOne)
	}
	small, large := perAppend(4), perAppend(400)
	if large > small+0.5 {
		t.Fatalf("allocations per append: %.2f at 400 txns, %.2f at 4", large, small)
	}
	t.Logf("allocations per append: %.2f at 4 txns, %.2f at 400", small, large)
}
