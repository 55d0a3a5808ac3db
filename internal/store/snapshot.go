// Package store is the durable storage subsystem: it persists the
// blockchain ledger through a segmented write-ahead log (internal/wal) and
// execution-state checkpoints through an atomic snapshot store, and rebuilds
// both on restart with open-replay-truncate semantics. See doc.go of
// internal/wal for the on-disk log format and crash taxonomy.
//
// The write-ahead log is the home of every durable block body: the
// in-memory ledger (DurableLedger.Memory) keeps each block's header and
// holds its body only until the block's record is durable, then reads it
// back from the record on demand (see DurableLedger).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

const (
	snapMagicV1 = "RCCCKP1\n"
	snapMagic   = "RCCCKP2\n" // v2 adds the cumulative transaction count
	snapPrefix  = "ckp-"
	snapSuffix  = ".ckp"

	keepSnapshots = 2 // generations Save retains
)

// Snapshot is one durable execution-state checkpoint: the application state
// bytes at a ledger height, bound to that height's block hash and state
// digest so a restart can prove the snapshot belongs to the journal it sits
// next to.
type Snapshot struct {
	// Height is the ledger height the snapshot was taken at (the number
	// of blocks applied; the covering block is Height-1).
	Height uint64
	// HeadHash is the hash of block Height-1.
	HeadHash types.Digest
	// StateDigest is block Height-1's StateHash — the application's own
	// digest after applying that block.
	StateDigest types.Digest
	// TxnCount is the cumulative number of transactions the chain carries
	// through Height. A replica whose ledger starts at a state-transfer
	// base needs it to resume the executed counter (client replies hash
	// it), since the summarized blocks are no longer there to count.
	// Zero in v1 snapshot files; recomputed from the chain when possible.
	TxnCount uint64
	// AppState is the application's serialized state (Snapshotter).
	AppState []byte
}

// Snapshotter is the optional capability an exec.Application implements to
// participate in checkpoint persistence. Applications without it still
// recover — by re-executing the whole journal instead of resuming from the
// latest checkpoint.
type Snapshotter interface {
	// Snapshot serializes the full application state deterministically.
	Snapshot() []byte
	// Restore replaces the application state with a Snapshot() image.
	Restore(data []byte) error
}

// SnapshotStore persists snapshots as individual files, one per
// checkpoint, written atomically (tmp + fsync + rename).
type SnapshotStore struct {
	dir string
	// pin is a height whose snapshot retention never prunes: the base
	// snapshot of a rebased ledger is the only record of the summarized
	// prefix (its head hash and cumulative transaction count), so it must
	// survive until the next install moves the base. 0 pins nothing (a
	// genesis-rooted chain needs no base snapshot).
	pin uint64
}

// Pin protects the snapshot at height h from retention pruning.
func (s *SnapshotStore) Pin(h uint64) { s.pin = h }

// OpenSnapshots opens (creating if necessary) a snapshot directory.
func OpenSnapshots(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &SnapshotStore{dir: dir}, nil
}

func (s *SnapshotStore) path(height uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", snapPrefix, height, snapSuffix))
}

func encodeSnapshot(snap *Snapshot) []byte {
	buf := make([]byte, 0, len(snapMagic)+8+32+32+8+4+len(snap.AppState)+4)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, snap.Height)
	buf = append(buf, snap.HeadHash[:]...)
	buf = append(buf, snap.StateDigest[:]...)
	buf = binary.BigEndian.AppendUint64(buf, snap.TxnCount)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snap.AppState)))
	buf = append(buf, snap.AppState...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func decodeSnapshot(buf []byte) (*Snapshot, error) {
	const fixed = len(snapMagic) + 8 + 32 + 32 + 4 + 4 // v1 floor; v2 adds 8
	if len(buf) < fixed {
		return nil, errors.New("store: snapshot file too short")
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errors.New("store: snapshot checksum mismatch")
	}
	v2 := string(body[:len(snapMagic)]) == snapMagic
	if !v2 && string(body[:len(snapMagicV1)]) != snapMagicV1 {
		return nil, errors.New("store: snapshot bad magic")
	}
	body = body[len(snapMagic):]
	snap := &Snapshot{Height: binary.BigEndian.Uint64(body)}
	body = body[8:]
	copy(snap.HeadHash[:], body)
	body = body[32:]
	copy(snap.StateDigest[:], body)
	body = body[32:]
	if v2 {
		if len(body) < 8 {
			return nil, errors.New("store: snapshot file too short")
		}
		snap.TxnCount = binary.BigEndian.Uint64(body)
		body = body[8:]
	}
	if len(body) < 4 {
		return nil, errors.New("store: snapshot file too short")
	}
	n := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	if len(body) != n {
		return nil, fmt.Errorf("store: snapshot app state is %d bytes, header says %d", len(body), n)
	}
	if n > 0 {
		snap.AppState = append([]byte(nil), body...)
	}
	return snap, nil
}

// Save persists snap atomically and prunes generations beyond the retention
// bound. A crash at any point leaves either the previous set of snapshots
// or the previous set plus the complete new one — never a torn file under a
// final name.
func (s *SnapshotStore) Save(snap *Snapshot) error {
	if err := writeFileAtomic(s.dir, s.path(snap.Height), encodeSnapshot(snap)); err != nil {
		return err
	}
	return s.prune()
}

// writeFileAtomic writes data under path via tmp + fsync + rename + dir
// sync: a crash at any point leaves either no file or the complete new one
// under the final name, never a torn file. dir must contain path.
func writeFileAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir) // make the rename itself durable
}

func (s *SnapshotStore) heights() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var hs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		h, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
		if err != nil {
			continue
		}
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs, nil
}

func (s *SnapshotStore) prune() error {
	hs, err := s.heights()
	if err != nil {
		return err
	}
	live := 0
	for _, h := range hs {
		if s.pin != 0 && h == s.pin {
			continue
		}
		live++
	}
	for _, h := range hs {
		if live <= keepSnapshots {
			break
		}
		if s.pin != 0 && h == s.pin {
			continue
		}
		if err := os.Remove(s.path(h)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		live--
	}
	return nil
}

// Load reads the snapshot at exactly height h, or (nil, nil) when no
// readable one exists there.
func (s *SnapshotStore) Load(h uint64) (*Snapshot, error) {
	data, err := os.ReadFile(s.path(h))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, nil // unreadable (bitrot): treat as absent
	}
	return snap, nil
}

// Latest returns the newest readable snapshot, or (nil, nil) when none
// exists. Unreadable generations (bitrot) are skipped in favor of older
// ones — the WAL replay covers the gap.
func (s *SnapshotStore) Latest() (*Snapshot, error) {
	hs, err := s.heights()
	if err != nil {
		return nil, err
	}
	for i := len(hs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(s.path(hs[i]))
		if err != nil {
			continue
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			continue
		}
		return snap, nil
	}
	return nil, nil
}
