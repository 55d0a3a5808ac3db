package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestReadServesEveryFlushedRecord: Read returns each record's payload from
// the offsets writes recorded, across segment rolls, and from the offsets
// Open's scan rebuilt after a reopen; it refuses what is not on disk yet.
func TestReadServesEveryFlushedRecord(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128})
	appendN(t, l, 0, 20)
	if _, err := l.Read(20); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read of a buffered record: %v, want ErrUnavailable", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 3 {
		t.Fatalf("%d segments, want several", l.Segments())
	}
	check := func(l *Log) {
		t.Helper()
		for i := 1; i <= 20; i++ {
			got, err := l.Read(uint64(i))
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if want := fmt.Sprintf("record-%04d", i-1); string(got) != want {
				t.Fatalf("read %d = %q, want %q", i, got, want)
			}
		}
		for _, idx := range []uint64{0, 21} {
			if _, err := l.Read(idx); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("read %d: %v, want ErrUnavailable", idx, err)
			}
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check(l) // a closed log still serves its files
	check(openT(t, dir, Options{Sync: SyncNone, SegmentBytes: 128}))
}

// TestReadRefusesPrunedRecords: a pruned record is unavailable, the records
// kept behind it still read back.
func TestReadRefusesPrunedRecords(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentBytes: 128})
	appendN(t, l, 0, 20)
	if _, err := l.Read(1); err != nil { // caches a handle on the first segment
		t.Fatal(err)
	}
	if err := l.Prune(10); err != nil {
		t.Fatal(err)
	}
	first := l.FirstIndex()
	if first <= 1 || first > 10 {
		t.Fatalf("first index %d after prune", first)
	}
	if _, err := l.Read(first - 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read of pruned record %d: %v, want ErrUnavailable", first-1, err)
	}
	if got, err := l.Read(first); err != nil || string(got) != fmt.Sprintf("record-%04d", first-1) {
		t.Fatalf("read %d after prune: %q, %v", first, got, err)
	}
}

// TestReadDetectsBitFlip: a record damaged on disk after it was written
// fails its CRC on Read instead of returning wrong bytes.
func TestReadDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendN(t, l, 0, 3)
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 2's payload starts after the header, record 1, and its frame.
	off := headerSize + frameSize + len("record-0000") + frameSize + 2
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of a flipped record: %v, want ErrCorrupt", err)
	}
	if got, err := l.Read(3); err != nil || string(got) != "record-0002" {
		t.Fatalf("read of the intact record after it: %q, %v", got, err)
	}
}

// FuzzWALSegment feeds arbitrary bytes to Open as the log's only segment.
// Open must either refuse them with ErrCorrupt or accept them, truncating a
// torn tail; an accepted log must serve through Read exactly the payload
// Replay yields for every index, and appends after the last.
func FuzzWALSegment(f *testing.F) {
	seed := func(payloads ...string) []byte {
		dir := f.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := l.Append([]byte(p)); err != nil {
				f.Fatal(err)
			}
		}
		l.Close()
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	full := seed("alpha", "", "gamma gamma", "delta")
	f.Add(full)
	f.Add(full[:len(full)-3])              // torn payload
	f.Add(full[:len(full)-len("delta")-5]) // torn frame header
	f.Add(full[:headerSize])
	f.Add(full[:5])
	flipped := bytes.Clone(full)
	flipped[headerSize+frameSize+1] ^= 1 // mid-log damage
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open refused with %v, want ErrCorrupt", err)
			}
			return
		}
		defer l.Close()
		var want [][]byte
		if err := l.Replay(func(idx uint64, p []byte) error {
			if idx != uint64(len(want))+1 {
				t.Fatalf("replay index %d after %d records", idx, len(want))
			}
			want = append(want, bytes.Clone(p))
			return nil
		}); err != nil {
			t.Fatalf("replay of an opened log: %v", err)
		}
		if l.LastIndex() != uint64(len(want)) {
			t.Fatalf("last index %d, replay yields %d records", l.LastIndex(), len(want))
		}
		for i, p := range want {
			got, err := l.Read(uint64(i) + 1)
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("read %d = %q, %v; replay yields %q", i+1, got, err, p)
			}
		}
		idx, err := l.Append([]byte("next"))
		if err != nil || idx != uint64(len(want))+1 {
			t.Fatalf("append after open: index %d, %v", idx, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, err := l.Read(idx); err != nil || string(got) != "next" {
			t.Fatalf("read of the appended record: %q, %v", got, err)
		}
	})
}
