package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		idx, err := l.Append([]byte(fmt.Sprintf("record-%04d", start+i)))
		if err != nil {
			t.Fatalf("append %d: %v", start+i, err)
		}
		if want := uint64(start + i + 1); idx != want {
			t.Fatalf("append returned index %d, want %d", idx, want)
		}
	}
}

func collect(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	if err := l.Replay(func(idx uint64, p []byte) error {
		got[idx] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNone})
	if l2.LastIndex() != 10 {
		t.Fatalf("reopened at index %d, want 10", l2.LastIndex())
	}
	appendN(t, l2, 10, 5)
	got := collect(t, l2)
	if len(got) != 15 {
		t.Fatalf("replayed %d records, want 15", len(got))
	}
	for i := 0; i < 15; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d = %q", i+1, got[uint64(i+1)])
		}
	}
}

func TestSegmentsRollAndStayOrdered(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	appendN(t, l, 0, 50)
	if l.Segments() < 5 {
		t.Fatalf("only %d segments after 50 records with 128-byte roll", l.Segments())
	}
	if len(collect(t, l)) != 50 {
		t.Fatal("records lost across segment rolls")
	}
	l.Close()
	l2 := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	if l2.LastIndex() != 50 {
		t.Fatalf("reopen across segments: last index %d, want 50", l2.LastIndex())
	}
}

// lastSegment returns the path of the highest-index segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	sort.Strings(entries)
	return entries[len(entries)-1]
}

func TestTornTailRecordIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	appendN(t, l, 0, 5)
	l.Close()

	// Simulate a crash mid-append: chop the last record's payload short.
	path := lastSegment(t, dir)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{Sync: SyncNone})
	if l2.Truncated() != 1 {
		t.Fatalf("Truncated() = %d, want 1", l2.Truncated())
	}
	if l2.LastIndex() != 4 {
		t.Fatalf("last index %d after torn tail, want 4", l2.LastIndex())
	}
	// The log must be fully usable after truncation: the torn index is
	// reassigned to the next append.
	appendN(t, l2, 4, 1)
	got := collect(t, l2)
	if len(got) != 5 || got[5] != "record-0004" {
		t.Fatalf("post-truncation state wrong: %v", got)
	}
}

func TestTornFrameHeaderIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	appendN(t, l, 0, 3)
	l.Close()

	// Crash after only 3 bytes of the next record's frame header hit disk.
	f, err := os.OpenFile(lastSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00})
	f.Close()

	l2 := openT(t, dir, Options{Sync: SyncNone})
	if l2.LastIndex() != 3 || l2.Truncated() != 1 {
		t.Fatalf("last=%d truncated=%d, want 3/1", l2.LastIndex(), l2.Truncated())
	}
}

func TestBitFlipMidSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	appendN(t, l, 0, 8)
	l.Close()

	// Flip one payload bit of record 3 — damage with intact records after
	// it can never be a torn tail, so Open must refuse the log.
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("record-0002"))
	if i < 0 {
		t.Fatal("record 3 payload not found")
	}
	data[i] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Sync: SyncNone}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after mid-segment bit flip: %v, want ErrCorrupt", err)
	}
}

func TestBitFlipInNonFinalSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	appendN(t, l, 0, 20)
	if l.Segments() < 2 {
		t.Fatal("need multiple segments")
	}
	l.Close()

	// Damage the LAST record of the FIRST segment: tail position within
	// its file, but segments follow it, so it is corruption, not a tear.
	entries, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	sort.Strings(entries)
	data, _ := os.ReadFile(entries[0])
	data[len(data)-1] ^= 0x01
	os.WriteFile(entries[0], data, 0o644)

	if _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after non-final-segment damage: %v, want ErrCorrupt", err)
	}
}

func TestMissingSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	appendN(t, l, 0, 20)
	l.Close()
	entries, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	sort.Strings(entries)
	if len(entries) < 3 {
		t.Fatal("need at least 3 segments")
	}
	os.Remove(entries[1])
	if _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with a missing middle segment: %v, want ErrCorrupt", err)
	}
}

// TestGroupCommitConcurrentAppendsAllDurable drives the Appender from
// several submitters at once: every record must complete without error, land
// under a commit point shared with its neighbours, and replay after a reopen.
func TestGroupCommitConcurrentAppendsAllDurable(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncGroup})
	a := l.NewAppender(AsyncOptions{QueueDepth: 16})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, 2*writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := a.Submit([]byte(fmt.Sprintf("w%d-%d", w, i)), func(_ uint64, err error) {
					if err != nil {
						errs <- err
					}
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := a.Close(); err != nil { // drains: every callback has fired
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if l.LastIndex() != writers*each || l.DurableIndex() != writers*each {
		t.Fatalf("last index %d, durable index %d, want both %d", l.LastIndex(), l.DurableIndex(), writers*each)
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	if got := len(collect(t, l2)); got != writers*each {
		t.Fatalf("recovered %d records, want %d", got, writers*each)
	}
}

// TestSyncRacingAppenderReportsOnlyReplayableRecords runs Log.Sync in a loop
// against a busy Appender — two callers of the one commit point — then
// crashes the log: every index either of them reported durable must replay,
// and the durable watermark must never step backwards while they race.
func TestSyncRacingAppenderReportsOnlyReplayableRecords(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 4 << 10}) // rolls race the commit point too
	a := l.NewAppender(AsyncOptions{QueueDepth: 8})
	var reported atomic.Uint64 // highest index anyone was told is durable
	report := func(idx uint64) {
		for cur := reported.Load(); idx > cur && !reported.CompareAndSwap(cur, idx); cur = reported.Load() {
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the racing Sync caller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			report(l.DurableIndex())
		}
	}()
	go func() { // the monotonicity watcher
		defer wg.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := l.DurableIndex()
			if cur < prev {
				t.Errorf("durable index stepped back: %d after %d", cur, prev)
				return
			}
			prev = cur
		}
	}()
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := a.Submit([]byte(fmt.Sprintf("record-%04d", i)), func(lsn uint64, err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
				return
			}
			report(lsn)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	a.CloseAbrupt()
	l.CloseAbrupt()
	if reported.Load() == 0 {
		t.Fatal("nothing was ever reported durable")
	}

	l2 := openT(t, dir, Options{})
	got := collect(t, l2)
	for i := uint64(1); i <= reported.Load(); i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("record %d was reported durable (watermark %d) but does not replay", i, reported.Load())
		}
	}
}

func TestPruneDropsOnlyWholeColdSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	appendN(t, l, 0, 40)
	before := l.Segments()
	if err := l.Prune(20); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("prune removed nothing (%d segments)", l.Segments())
	}
	if first := l.FirstIndex(); first == 0 || first > 20 {
		t.Fatalf("first retained index %d, want in (0, 20]", first)
	}
	// Everything from keepFrom on must still replay.
	got := collect(t, l)
	for i := uint64(20); i <= 40; i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("record %d lost by prune", i)
		}
	}
	l.Close()
	// A pruned log must still reopen (first index > 1).
	l2 := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	if l2.LastIndex() != 40 {
		t.Fatalf("reopen after prune: last %d, want 40", l2.LastIndex())
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := openT(t, dir, Options{Sync: SyncNone})
	got := collect(t, l2)
	if v, ok := got[1]; !ok || v != "" {
		t.Fatalf("empty payload lost: %v", got)
	}
}

// TestDirectorySyncedOnRollAndPrune: creating a segment and removing
// segments both change the log directory, so each must fsync it — through
// the fsync seam, which is also how failpoints see it.
func TestDirectorySyncedOnRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	dirSyncs := 0
	l.fsyncFn = func(f *os.File) error {
		if f.Name() == dir {
			dirSyncs++
		}
		return f.Sync()
	}
	appendN(t, l, 0, 40)
	if l.Segments() < 2 {
		t.Fatalf("appends never rolled a segment (%d segments)", l.Segments())
	}
	if dirSyncs == 0 {
		t.Fatal("segment roll did not fsync the directory")
	}
	rolled := dirSyncs
	before := l.Segments()
	if err := l.Prune(20); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("prune removed nothing (%d segments)", l.Segments())
	}
	if dirSyncs == rolled {
		t.Fatal("prune did not fsync the directory after removing segments")
	}

	// A failed directory fsync in Prune poisons the log like any other.
	fp := &Failpoints{}
	l2 := openT(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 128, Failpoints: fp})
	appendN(t, l2, 0, 40)
	injected := errors.New("injected EIO")
	fp.FailFsync(injected)
	if err := l2.Prune(20); !errors.Is(err, injected) {
		t.Fatalf("prune under armed failpoint returned %v, want %v", err, injected)
	}
	fp.HealFsync()
	if _, err := l2.Append([]byte("after")); !errors.Is(err, injected) {
		t.Fatalf("append after failed prune sync returned %v, want the sticky %v", err, injected)
	}
}
