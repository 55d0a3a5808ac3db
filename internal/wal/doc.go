// Package wal implements the segmented, checksummed write-ahead log
// underlying the durable storage subsystem (internal/store). It persists
// the blockchain ledger the paper's replicas maintain (§V-B) so a restarted
// replica resumes from disk instead of demanding full state transfer from
// its peers.
//
// # On-disk format
//
// A log is a directory of segment files named
//
//	wal-<first-index>.wal        e.g. wal-0000000000000001.wal
//
// where <first-index> is the 1-based index of the segment's first record,
// zero-padded to 16 hex digits so lexicographic order is index order. Each
// segment starts with a 16-byte header:
//
//	offset  size  field
//	0       8     magic "RCCWAL1\n"
//	8       8     first record index, big-endian uint64
//
// followed by a sequence of records framed as
//
//	offset  size  field
//	0       4     payload length, big-endian uint32
//	4       4     CRC-32 (IEEE) of the payload
//	8       n     payload
//
// Records never span segments: when appending a record would push the
// current segment past Options.SegmentBytes, the segment is flushed, synced,
// and closed, and a fresh segment starts with the next index.
//
// # Recovery semantics (open-replay-truncate)
//
// Open scans every segment in index order and validates each record's frame
// and checksum. Damage is classified by where it sits:
//
//   - A record that extends past the end of the LAST segment, or whose
//     checksum fails on the very last record of the last segment, is a torn
//     write — the tail of an append that lost a race with the crash. The
//     segment is truncated to the last intact record and appends resume
//     from there. Torn tails are expected and silent (reported via
//     Log.Truncated for tests and operators).
//
//   - Any other damage — a checksum mismatch with intact records after it,
//     a short record in a non-final segment, a bad segment header — cannot
//     be the trailing edge of a crash and means the storage itself lied.
//     Open fails with ErrCorrupt; recovery then requires state transfer
//     from peers (internal/statesync: delete the data dir and restart),
//     never a silent gap in the journal.
//
// # Rebase on state-transfer install
//
// A log normally starts at record index 1. A state-transfer install
// (store.InstallState) REBASES it: the staged log's first segment starts
// at index H+1, where H is the installed snapshot's height — declaring
// records 1..H summarized by that snapshot rather than lost. Open already
// accepts a first segment past index 1 (pruned logs share the shape); the
// store layer enforces that a rebased journal is always accompanied by its
// base checkpoint (pinned against retention pruning), whose head hash and
// cumulative transaction count anchor the chain below the first record.
// Options.FirstIndex is the creation hook; Log.Base reports the rebase
// point.
//
// # Random access
//
// Open's scan and every write record each record's file offset, per
// segment, so Log.Read(index) returns one record with a single positioned
// read, checked against its CRC. Read serves only what is on disk: it
// refuses (ErrUnavailable) an index that was pruned, never written, or is
// still in the write buffer. The store relies on it: once a block's record
// is durable, the record is the only copy of the block's body, and the
// in-memory ledger reads it back from there.
//
// Acked⇒durable across a state transfer: the committer is drained and
// closed before the old journal is retired, the staged log is fully
// fsynced before the commit marker is written, and the install either
// completes or leaves the old state untouched — so at every instant the
// journal on disk covers every transaction any client was ever
// acknowledged for, on both sides of the swap.
//
// # Durability: one commit point, pipelined
//
// Exactly one piece of code makes records durable on the append path — the
// log's commit point: flush the write buffer under the write lock, fsync
// OUTSIDE it (writers keep filling the buffer while the disk works), then
// advance the durable watermark (Log.DurableIndex) to the last record the
// flush covered. Log.Sync and the Appender both run it, so whichever
// finishes first covers the other's records and the watermark only ever
// advances. (Close and a segment roll fsync under the lock instead, because
// they close the file next.) Options.Sync selects the policy:
//
//   - SyncGroup (default): a record is reported complete only after a
//     commit point covers it.
//   - SyncNone: no fsync on the append path; the commit point stops after
//     the flush (process-crash-safe, not power-loss-safe). For tests and
//     throwaway runs. Log.Sync still fsyncs — checkpoints rely on it.
//
// A replica's ledger has one writer — its event loop — so stop-and-wait
// journaling (Log.Append: buffered write, then the commit point) pays a
// full fsync per block. The Appender turns that writer into a pipeline:
//
//   - Submit writes the record into the log's buffer and returns
//     immediately with its index; the caller keeps executing.
//   - A single committer goroutine coalesces every record in flight — up
//     to DefaultMaxBatchBytes per batch — under ONE commit point, then
//     fires each record's completion callback with the durable LSN, in
//     index order.
//   - AsyncOptions.QueueDepth bounds records submitted but not yet
//     durable; a full queue blocks Submit, back-pressuring the producer
//     instead of buffering unacknowledged work without limit.
//   - Errors are sticky (fsyncgate): after one failed commit point the log
//     is poisoned, every in-flight callback carries the error, later
//     Submits fail, and nothing past the failure is ever reported durable.
//   - Close drains: remaining records get a final commit point and their
//     callbacks before Close returns. CloseAbrupt is the crash-shaped
//     close for tests — no flush, no fsync, no callbacks.
//
// The replica runtime journals every block through an Appender
// (store.DurableLedger) and defers client replies to these callbacks: a
// client acknowledgement implies the block is on disk, while the event loop
// never waits out an fsync. BenchmarkAsyncJournal reports records/fsync, the
// amortization the pipeline recovers.
package wal
