package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	magic       = "RCCWAL1\n"
	headerSize  = 16 // magic + first-index
	frameSize   = 8  // payload length + CRC-32
	segPrefix   = "wal-"
	segSuffix   = ".wal"
	maxPayload  = 1 << 30
	writeBuffer = 256 << 10

	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 64 << 20
)

// SyncPolicy selects when appends become durable. See the package
// documentation for the trade-offs.
type SyncPolicy int

const (
	// SyncGroup makes every acknowledged record durable: an append is
	// reported complete only after a commit point (fsync) covers it, and
	// the Appender shares each commit point across every record in flight.
	// The default.
	SyncGroup SyncPolicy = iota
	// SyncNone never fsyncs on the append path; durability is best-effort.
	SyncNone
)

// Options parameterizes a log.
type Options struct {
	// SegmentBytes is the size at which segments roll (default 64 MiB).
	SegmentBytes int64
	// Sync is the durability policy (default SyncGroup).
	Sync SyncPolicy
	// FirstIndex, when >1, is the index the first record of a NEWLY
	// CREATED log receives — the rebase hook of the state-transfer
	// subsystem: a log staged next to an installed snapshot at height H
	// starts at index H+1, declaring records 1..H summarized by the
	// snapshot rather than lost. Ignored when the directory already holds
	// segments (their names carry the authoritative base).
	FirstIndex uint64
	// Failpoints, when non-nil, injects disk faults (fsync errors, torn
	// writes at crash) into this log. Chaos/test wiring only.
	Failpoints *Failpoints
}

// ErrCorrupt reports damage that cannot be a torn tail: the log is not
// trustworthy and must be rebuilt (e.g. by state transfer from peers).
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

type segment struct {
	path  string
	first uint64 // index of the segment's first record
	count uint64 // records in the segment
}

func (s *segment) lastIndex() uint64 { return s.first + s.count - 1 }

// Log is a segmented write-ahead log. Append, Sync, and Close are safe for
// concurrent use; Replay must not run concurrently with Append.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	segments  []segment
	f         *os.File      // active (last) segment
	w         *bufio.Writer // buffers writes into f
	size      int64         // bytes written to the active segment
	next      uint64        // index the next Append receives
	closed    bool
	fatal     error // sticky fsync failure: the kernel may have dropped dirty pages
	truncated int   // torn records dropped at Open

	appends atomic.Uint64 // records appended this process
	syncs   atomic.Uint64 // fsyncs issued this process
	synced  atomic.Uint64 // highest index known durable; only ever advances

	// fsyncFn, when non-nil, replaces (*os.File).Sync — the test seam for
	// injecting fsync failures (fsyncgate realism).
	fsyncFn func(*os.File) error
}

// Open opens (creating if necessary) the log in dir, validates every
// segment, truncates a torn tail, and positions the log to append after the
// last intact record. It returns ErrCorrupt when damage mid-log makes the
// journal untrustworthy.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, next: 1}
	if opts.FirstIndex > 1 {
		l.next = opts.FirstIndex
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		if i == 0 {
			// A pruned log legitimately starts past index 1; only gaps
			// BETWEEN segments are corruption.
			l.next = segs[0].first
		}
		res, err := l.scanSegment(&segs[i], i == len(segs)-1, nil)
		if err != nil {
			return nil, err
		}
		if res.tornAt >= 0 {
			// Torn tail: drop the partial record(s) and reclaim the
			// space. Only legal in the last segment; scanSegment
			// already rejected everything else.
			if err := truncateSegment(segs[i].path, res.tornAt); err != nil {
				return nil, err
			}
			l.truncated++
		}
		segs[i].count = res.count
		if segs[i].first != l.next {
			return nil, fmt.Errorf("%w: segment %s starts at index %d, want %d",
				ErrCorrupt, filepath.Base(segs[i].path), segs[i].first, l.next)
		}
		l.next = segs[i].first + segs[i].count
	}
	// A crash can leave a last segment too short to even hold its header;
	// nothing durable was in it, so recreate it below.
	if n := len(segs); n > 0 && segs[n-1].count == 0 && segs[n-1].first == l.next {
		if fi, err := os.Stat(segs[n-1].path); err == nil && fi.Size() < headerSize {
			if err := os.Remove(segs[n-1].path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			segs = segs[:n-1]
		}
	}
	l.segments = segs

	if len(l.segments) == 0 {
		if err := l.rollLocked(); err != nil {
			return nil, err
		}
	} else {
		active := &l.segments[len(l.segments)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(fi.Size(), io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.w, l.size = f, bufio.NewWriterSize(f, writeBuffer), fi.Size()
	}
	l.synced.Store(l.next - 1)
	return l, nil
}

// listSegments returns the segment files of dir in index order, with first
// indexes parsed from the names.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

type scanResult struct {
	count  uint64
	tornAt int64 // file offset of the torn tail, -1 when intact
}

// scanSegment validates seg record by record, invoking fn (when non-nil)
// with each intact payload. Damage in the last segment's tail position is
// reported via tornAt; any other damage is ErrCorrupt.
func (l *Log) scanSegment(seg *segment, isLast bool, fn func(index uint64, payload []byte) error) (scanResult, error) {
	res := scanResult{tornAt: -1}
	f, err := os.Open(seg.path)
	if err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	if size < headerSize {
		if isLast {
			res.tornAt = 0
			return res, nil
		}
		return res, fmt.Errorf("%w: segment %s shorter than its header", ErrCorrupt, filepath.Base(seg.path))
	}
	r := bufio.NewReaderSize(f, writeBuffer)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return res, fmt.Errorf("wal: %w", err)
	}
	if string(hdr[:8]) != magic {
		return res, fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, filepath.Base(seg.path))
	}
	if first := binary.BigEndian.Uint64(hdr[8:]); first != seg.first {
		return res, fmt.Errorf("%w: segment %s header says first index %d", ErrCorrupt, filepath.Base(seg.path), first)
	}

	var frame [frameSize]byte
	var payload []byte
	off := int64(headerSize)
	for off < size {
		torn := func() (scanResult, error) {
			if !isLast {
				return res, fmt.Errorf("%w: segment %s damaged at offset %d with segments after it",
					ErrCorrupt, filepath.Base(seg.path), off)
			}
			res.tornAt = off
			return res, nil
		}
		if size-off < frameSize {
			return torn() // header cut off mid-write
		}
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return res, fmt.Errorf("wal: %w", err)
		}
		n := int64(binary.BigEndian.Uint32(frame[:4]))
		sum := binary.BigEndian.Uint32(frame[4:])
		if n > maxPayload || off+frameSize+n > size {
			return torn() // payload cut off mid-write (or garbage length)
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return res, fmt.Errorf("wal: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if isLast && off+frameSize+n == size {
				// The very last record of the log: a payload only
				// partially flushed before the crash.
				res.tornAt = off
				return res, nil
			}
			return res, fmt.Errorf("%w: crc mismatch in %s at offset %d (record %d)",
				ErrCorrupt, filepath.Base(seg.path), off, seg.first+res.count)
		}
		if fn != nil {
			if err := fn(seg.first+res.count, payload); err != nil {
				return res, err
			}
		}
		res.count++
		off += frameSize + n
	}
	return res, nil
}

func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// rollLocked flushes, syncs, and closes the active segment and starts a
// fresh one whose first index is l.next, fsyncing the directory so the new
// segment's entry survives a crash. Caller holds l.mu.
func (l *Log) rollLocked() error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, l.next, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint64(hdr[8:], l.next)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.segments = append(l.segments, segment{path: path, first: l.next})
	l.f, l.w, l.size = f, bufio.NewWriterSize(f, writeBuffer), headerSize
	return nil
}

// writeLocked validates, rolls if needed, and writes payload as the next
// record into the write buffer. Caller holds l.mu. Durability is the
// caller's problem.
func (l *Log) writeLocked(payload []byte) (uint64, error) {
	if int64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.fatal != nil {
		return 0, l.fatal
	}
	if l.size+frameSize+int64(len(payload)) > l.opts.SegmentBytes && l.size > headerSize {
		if err := l.rollLocked(); err != nil {
			l.fatal = err // mid-roll failures leave the log unusable too
			return 0, err
		}
	}
	var frame [frameSize]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(frame[:]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	idx := l.next
	l.next++
	l.size += frameSize + int64(len(payload))
	l.segments[len(l.segments)-1].count++
	l.appends.Add(1)
	return idx, nil
}

// AppendNoSync writes payload as the next record into the log's buffer and
// returns immediately, whatever the sync policy: the record is not durable
// until a later commit point covers it. The Appender submits through it, and
// bulk installers (state transfer) use it to write a whole block suffix
// under one fsync instead of one per record.
func (l *Log) AppendNoSync(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(payload)
}

// Base returns the index the oldest segment starts at — the log's rebase
// point. Records below it were summarized by a snapshot when the log was
// staged by a state-transfer install (1 for a log that has never been
// rebased).
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return l.next
	}
	return l.segments[0].first
}

// Append writes payload as the next record and returns its 1-based index
// once the record is durable under the log's sync policy: a buffered write
// followed by the log's commit point. A lone caller pays one fsync per
// record; callers that want records to share fsyncs use an Appender.
func (l *Log) Append(payload []byte) (uint64, error) {
	idx, err := l.AppendNoSync(payload)
	if err != nil || l.opts.Sync == SyncNone {
		return idx, err
	}
	if err := l.Sync(); err != nil {
		return 0, err
	}
	return idx, nil
}

// fsync flushes f's data to stable storage, via the test seam when set.
// An armed fsync failpoint takes precedence over both the seam and the
// real syscall: the injected error enters the same sticky-failure paths.
func (l *Log) fsync(f *os.File) error {
	if err, armed := l.opts.Failpoints.fsync(); armed {
		return err
	}
	if l.fsyncFn != nil {
		return l.fsyncFn(f)
	}
	return f.Sync()
}

// syncDir fsyncs the log directory, making segment creations and removals
// durable. It goes through l.fsync, so failpoints and the test seam see it.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := l.fsync(d); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// markDurable advances the durable watermark to idx (never backwards: two
// commit points may finish out of order) and returns the watermark.
func (l *Log) markDurable(idx uint64) uint64 {
	for {
		cur := l.synced.Load()
		if idx <= cur {
			return cur
		}
		if l.synced.CompareAndSwap(cur, idx) {
			return idx
		}
	}
}

// syncLocked flushes the write buffer, fsyncs the active segment, and
// advances the durable watermark — the under-lock variant Close and a
// segment roll need, because they close the file next. A failure is sticky:
// after a failed fsync the kernel may have dropped the dirty pages
// (fsyncgate), so no later append may be reported durable. Caller holds
// l.mu.
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		l.fatal = fmt.Errorf("wal: %w", err)
		return l.fatal
	}
	l.syncs.Add(1)
	if err := l.fsync(l.f); err != nil {
		l.fatal = fmt.Errorf("wal: %w", err)
		return l.fatal
	}
	l.markDurable(l.next - 1)
	return nil
}

// commit is the log's one commit point, shared by Sync and the Appender: it
// flushes under the write lock, fsyncs OUTSIDE it so writers keep filling
// the buffer while the disk works, and returns the durable watermark —
// covering every record written before the flush. With fsync false (the
// Appender under SyncNone) it stops after the flush: the records reached the
// OS, the watermark does not move, and the returned index is the last record
// flushed. Failures poison the log like syncLocked's.
func (l *Log) commit(fsync bool) (uint64, error) {
	l.mu.Lock()
	err := l.fatal
	if l.closed {
		err = ErrClosed
	}
	if err == nil {
		if ferr := l.w.Flush(); ferr != nil {
			err = fmt.Errorf("wal: %w", ferr)
			l.fatal = err
		}
	}
	target, f := l.next-1, l.f
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if !fsync {
		return target, nil
	}

	// A segment roll or Close may race us and close f, but both fsync
	// before closing, so ErrClosed means "already durable".
	l.syncs.Add(1)
	if serr := l.fsync(f); serr != nil && !errors.Is(serr, os.ErrClosed) {
		err = fmt.Errorf("wal: %w", serr)
		l.mu.Lock()
		if l.fatal == nil {
			l.fatal = err
		}
		l.mu.Unlock()
		return 0, err
	}
	return l.markDurable(target), nil
}

// Sync forces everything appended so far to durable storage regardless of
// the sync policy.
func (l *Log) Sync() error {
	_, err := l.commit(true)
	return err
}

// DurableIndex returns the highest record index known to be durable (0
// when nothing is durable yet).
func (l *Log) DurableIndex() uint64 { return l.synced.Load() }

// Replay streams every record to fn in index order. It re-reads from disk,
// so it reflects exactly what a restart would recover. Replay must not run
// concurrently with Append.
func (l *Log) Replay(fn func(index uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: %w", err)
	}
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for i := range segs {
		if _, err := l.scanSegment(&segs[i], i == len(segs)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// Roll syncs and closes the active segment and starts a fresh one whose
// first index is the next append's. Snapshot-coordinated pruning uses it
// to place a segment boundary exactly at the snapshot height, so Prune can
// then reclaim everything the snapshot summarizes (whole segments only)
// and leave the log's base aligned with a retained checkpoint — the
// invariant store.Open's rebase path checks. A no-op when the active
// segment holds no records yet.
func (l *Log) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fatal != nil {
		return l.fatal
	}
	if l.size <= headerSize {
		return nil // active segment is empty: already a fresh cut
	}
	if err := l.rollLocked(); err != nil {
		l.fatal = err
		return err
	}
	return nil
}

// Prune deletes whole segments whose every record index is below keepFrom,
// then fsyncs the directory so the removals are durable. The active segment
// is never deleted. Partial segments are kept: pruning is a space reclaim,
// not a truncation.
func (l *Log) Prune(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segments[:0]
	for i := range l.segments {
		s := l.segments[i]
		if i < len(l.segments)-1 && s.count > 0 && s.lastIndex() < keepFrom {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	removed := len(kept) < len(l.segments)
	l.segments = kept
	if removed {
		if err := l.syncDir(); err != nil {
			l.fatal = err // a failed fsync poisons the log, as in Roll
			return err
		}
	}
	return nil
}

// FirstIndex returns the index of the oldest retained record (1 when the
// log has never been pruned), and 0 when the log is empty.
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.segments {
		if l.segments[i].count > 0 {
			return l.segments[i].first
		}
	}
	return 0
}

// LastIndex returns the index of the newest record, 0 when empty.
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Truncated reports how many torn tail records Open dropped.
func (l *Log) Truncated() int { return l.truncated }

// Stats reports the appended-record and issued-fsync counts of this
// process — the ratio is the records-per-fsync amortization factor.
func (l *Log) Stats() (appends, syncs uint64) {
	return l.appends.Load(), l.syncs.Load()
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, syncs, and closes the log. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	cerr := l.f.Close()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}

// CloseAbrupt closes the log the way a crash would: the write buffer is
// discarded and nothing is flushed or fsynced, so only records already
// pushed to the OS survive a reopen — and only fsynced ones would survive
// power loss. Crash-realism test helper; see DurableLedger.CloseAbrupt.
func (l *Log) CloseAbrupt() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	var tearPath string
	if fp := l.opts.Failpoints; fp != nil && fp.tornBytes.Load() > 0 {
		// Torn-write failpoint: model the buffered bytes reaching the OS
		// with the tail of the last record caught mid-write — flush, then
		// cut the tail below. Reopen must repair it via torn-tail
		// truncation.
		l.w.Flush()
		tearPath = l.segments[len(l.segments)-1].path
	}
	l.f.Close() // deliberately without Flush: the buffer dies with the "process"
	if tearPath != "" {
		l.opts.Failpoints.tear(tearPath)
	}
	l.mu.Unlock()
}
