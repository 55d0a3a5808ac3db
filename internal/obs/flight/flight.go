// Package flight is the replica's black-box flight recorder: a lock-free,
// bounded ring of fixed-shape protocol events (view changes, suspicions,
// instance decisions, unification waves, link demotions, fsync stalls,
// statesync phases, loop stalls...) that survives long enough to explain an
// incident after the fact. Counters say "how many"; the flight ring says
// "in what order, across which replicas".
//
// Design constraints, in priority order:
//
//   - Recording must be safe from any goroutine and allocation-free: the
//     hot paths that emit (vote broadcast, decision delivery, the transport
//     read loop) cannot afford a mutex or an interface box. Each ring slot
//     is a stamp plus five packed words, all atomics, written under a
//     ticket from a single atomic counter — no locks anywhere, and clean
//     under the race detector.
//   - Readers never block writers. A dump validates each slot's stamp
//     before and after reading its words and silently drops slots that
//     were overwritten mid-read; with a ring of thousands of slots the
//     window is five word-stores wide, so a torn read costs at most one
//     garbled-then-discarded event, never a crash.
//   - Timestamps must merge across replicas whose wall clocks step. Events
//     carry only the monotonic offset from the recorder's start; every
//     Snapshot carries a fresh (wall, mono) anchor captured at dump time,
//     so wall(e) = AnchorWall - (AnchorMono - e.Mono) is correct even if
//     NTP slewed the wall clock after the process started.
//
// A nil *Recorder is the no-op sink: Record is a single branch, so
// instrumented code needs no conditional plumbing.
package flight

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Sub identifies the subsystem that emitted an event.
type Sub uint8

const (
	SubPBFT      Sub = iota + 1 // per-instance BCA consensus
	SubRCC                      // cross-instance unification / recovery
	SubTransport                // TCP links, auth, queues
	SubStore                    // wal + durable store
	SubStateSync                // checkpoint/block-range transfer
	SubRuntime                  // event loop, watchdog, lifecycle
)

var subNames = map[Sub]string{
	SubPBFT:      "pbft",
	SubRCC:       "rcc",
	SubTransport: "transport",
	SubStore:     "store",
	SubStateSync: "statesync",
	SubRuntime:   "runtime",
}

func (s Sub) String() string {
	if n, ok := subNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sub(%d)", uint8(s))
}

// Kind is the event type within a subsystem. Kinds are globally unique so a
// merged timeline never needs (sub, kind) pairs to disambiguate.
type Kind uint8

const (
	// pbft
	KViewChangeStart Kind = iota + 1 // view change initiated; view = target view
	KViewChangeDone                  // new view installed; view = installed view
	KSuspect                         // instance suspected faulty
	KCheckpointAdopt                 // certified checkpoint body adopted; seq = height

	// rcc
	KInstanceDecide // a BCA instance decided a round; seq = round
	KWaveUnify      // a round delivered in the unified order; seq = round
	KVoid           // rounds voided by a stop decision; seq = resume round
	KRecoveryKick   // recovery state transfer requested; seq = target round

	// transport
	KConnect      // first successful dial to a peer; detail = peer id
	KReconnect    // successful re-dial after a drop; detail = peer id
	KDemote       // link demoted (auth failures or write error); detail = peer id
	KAuthFail     // frame failed authentication; detail = peer id
	KOverflowDrop // message dropped on queue overflow; detail = peer/client id

	// wal / store
	KFsyncStall       // fsync exceeded the stall threshold; detail = latency ns
	KDurabilityPoison // sticky durability failure; journal poisoned
	KSnapshotCommit   // state snapshot committed; seq = height

	// statesync
	KSyncPhase   // phase transition; detail = Phase code
	KOfferReject // snapshot/chunk/range refused; detail = Reject code
	_            // was ckpt_attest; kept so the kinds after it keep their codes
	KCkptTarget  // checkpoint target adopted by a fetch; seq = snap height, detail = vouching peers

	// runtime
	KLoopStall // consensus event loop stopped draining; detail = stall ns

	// transaction lifecycle, sampled 1 in N; seq = client seq, detail = client
	KArrive  // request admitted by its instance, post-dedup (pbft)
	KAssign  // request routed to its instance (rcc)
	KPropose // round carrying the request pre-prepared (pbft)
	KDecide  // that round committed and delivered (pbft)
	KExecute // batch applied to the application (runtime)
	KDurable // batch's journal record fsync'd (runtime)
	KAck     // client replies for the batch enqueued (runtime)
)

var kindNames = map[Kind]string{
	KViewChangeStart:  "view_change_start",
	KViewChangeDone:   "view_change_done",
	KSuspect:          "suspect",
	KCheckpointAdopt:  "checkpoint_adopt",
	KInstanceDecide:   "instance_decide",
	KWaveUnify:        "wave_unify",
	KVoid:             "void",
	KRecoveryKick:     "recovery_kick",
	KConnect:          "connect",
	KReconnect:        "reconnect",
	KDemote:           "demote",
	KAuthFail:         "auth_fail",
	KOverflowDrop:     "overflow_drop",
	KFsyncStall:       "fsync_stall",
	KDurabilityPoison: "durability_poison",
	KSnapshotCommit:   "snapshot_commit",
	KSyncPhase:        "sync_phase",
	KOfferReject:      "offer_reject",
	KCkptTarget:       "ckpt_target",
	KLoopStall:        "loop_stalled",
	KArrive:           "arrive",
	KAssign:           "assign",
	KPropose:          "propose",
	KDecide:           "decide",
	KExecute:          "execute",
	KDurable:          "durable",
	KAck:              "ack",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Phase codes carried in KSyncPhase's detail word.
type Phase uint8

const (
	PhaseProbe    Phase = iota + 1 // probing peers for their head
	PhaseBehind                    // confirmed behind; transfer starting
	PhaseSnapshot                  // fetching snapshot chunks
	PhaseRange                     // fetching block ranges
	PhaseInstall                   // installing transferred state
	PhaseSynced                    // caught up to the cluster head
)

var phaseNames = map[Phase]string{
	PhaseProbe:    "probe",
	PhaseBehind:   "behind",
	PhaseSnapshot: "snapshot",
	PhaseRange:    "range",
	PhaseInstall:  "install",
	PhaseSynced:   "synced",
}

func (p Phase) String() string {
	if n, ok := phaseNames[p]; ok {
		return n
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Reject codes carried in KOfferReject's detail word — why an offered
// snapshot, chunk, or block range was refused.
type Reject uint8

const (
	RejectNoQuorum     Reject = iota + 1 // offers never reached f+1 agreement
	RejectTruncated                      // chunk shorter than its declared size
	RejectDigest                         // reassembled bytes hash to the wrong digest
	RejectWrongHeight                    // range outside the requested window
	RejectChainBreak                     // parent link broken inside a range
	RejectProof                          // commit proof failed verification
	RejectHeadMismatch                   // range head does not meet the certified head
	RejectOvercount                      // more blocks than requested
)

var rejectNames = map[Reject]string{
	RejectNoQuorum:     "no_quorum",
	RejectTruncated:    "truncated_chunk",
	RejectDigest:       "digest_mismatch",
	RejectWrongHeight:  "wrong_height",
	RejectChainBreak:   "chain_break",
	RejectProof:        "proof_mismatch",
	RejectHeadMismatch: "head_mismatch",
	RejectOvercount:    "overcount",
}

func (r Reject) String() string {
	if n, ok := rejectNames[r]; ok {
		return n
	}
	return fmt.Sprintf("reject(%d)", uint8(r))
}

// Event is one fixed-shape flight record. All fields pack into five 64-bit
// words on the wire and in the ring; there is deliberately no free-form
// payload — a detail code beats a string the hot path would have to format.
type Event struct {
	Mono     int64  // ns since the recorder's epoch (monotonic)
	Seq      uint64 // round / height / sequence, kind-dependent
	View     uint64 // consensus view, where meaningful
	Detail   uint64 // kind-dependent code (peer id, latency ns, Phase, Reject)
	Instance uint32 // BCA instance, where meaningful
	Replica  uint16 // emitting replica
	Sub      Sub
	Kind     Kind
}

// pack/unpack: word 4 carries instance<<32 | replica<<16 | sub<<8 | kind.
func (e Event) word4() uint64 {
	return uint64(e.Instance)<<32 | uint64(e.Replica)<<16 | uint64(e.Sub)<<8 | uint64(e.Kind)
}

func unpack4(w uint64) (instance uint32, replica uint16, sub Sub, kind Kind) {
	return uint32(w >> 32), uint16(w >> 16), Sub(w >> 8), Kind(w)
}

// slot is one ring entry. The stamp is 0 while a writer is mid-update and
// ticket+1 once the words are consistent; a reader accepts a slot only when
// the stamp reads as the expected ticket both before and after the words.
type slot struct {
	stamp atomic.Uint64
	w     [5]atomic.Uint64
}

// Recorder is the lock-free bounded event ring. One Recorder may be shared
// by every replica of an in-process cluster: events carry their emitting
// replica explicitly, so a shared ring still merges correctly.
type Recorder struct {
	epoch time.Time // creation instant; time.Since(epoch) is monotonic
	mask  uint64
	head  atomic.Uint64 // total events ever recorded; next ticket
	slots []slot
}

// DefaultSize is the ring capacity when New is given a non-positive size.
const DefaultSize = 4096

// New returns a recorder holding size events (rounded up to a power of
// two, minimum 16).
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	n := uint64(16)
	for n < uint64(size) {
		n <<= 1
	}
	return &Recorder{epoch: time.Now(), mask: n - 1, slots: make([]slot, n)}
}

// Record appends one event. Safe from any goroutine, never blocks, never
// allocates; a nil receiver records nothing.
func (r *Recorder) Record(replica uint16, sub Sub, kind Kind, instance uint32, view, seq, detail uint64) {
	if r == nil {
		return
	}
	mono := time.Since(r.epoch)
	ticket := r.head.Add(1) - 1
	s := &r.slots[ticket&r.mask]
	s.stamp.Store(0)
	s.w[0].Store(uint64(mono))
	s.w[1].Store(seq)
	s.w[2].Store(view)
	s.w[3].Store(detail)
	s.w[4].Store(Event{Instance: instance, Replica: replica, Sub: sub, Kind: kind}.word4())
	s.stamp.Store(ticket + 1)
}

// Head returns the total number of events ever recorded — the cursor a
// caller passes back as `since` to read only what is new.
func (r *Recorder) Head() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Snapshot is one consistent read of a recorder: the events, the cursor
// for the next read, and the hybrid-clock anchor that lets a merger
// resolve each event's wall time.
type Snapshot struct {
	Replica    uint16  // hint for single-replica dumps; events carry their own
	FirstSeq   uint64  // ring index of Events[0]
	Next       uint64  // pass as `since` to the next Dump for only-new events
	AnchorWall int64   // unix ns of the wall clock at capture
	AnchorMono int64   // recorder mono ns at the same instant
	Events     []Event // oldest first; overwritten-mid-read slots omitted
}

// WallTime resolves an event's wall-clock time against the snapshot's
// anchor. Correct across wall-clock steps after process start: the anchor
// pair is captured fresh at every dump.
func (s *Snapshot) WallTime(e Event) time.Time {
	return time.Unix(0, s.AnchorWall-(s.AnchorMono-e.Mono))
}

// Dump reads every event with index >= since that is still in the ring.
// Events overwritten between their stamp checks are dropped, never torn.
// Dump(0) reads the whole ring; Dump(prev.Next) reads only what arrived
// after the previous dump.
func (r *Recorder) Dump(since uint64) Snapshot {
	snap := Snapshot{AnchorWall: time.Now().UnixNano()}
	if r == nil {
		return snap
	}
	snap.AnchorMono = int64(time.Since(r.epoch))
	head := r.head.Load()
	snap.Next = head
	size := r.mask + 1
	lo := since
	if head > size && lo < head-size {
		lo = head - size
	}
	if lo >= head {
		snap.FirstSeq = head
		return snap
	}
	snap.FirstSeq = lo
	snap.Events = make([]Event, 0, head-lo)
	for i := lo; i < head; i++ {
		s := &r.slots[i&r.mask]
		if s.stamp.Load() != i+1 {
			continue // mid-write or already overwritten
		}
		var w [5]uint64
		for j := range w {
			w[j] = s.w[j].Load()
		}
		if s.stamp.Load() != i+1 {
			continue // overwritten while reading
		}
		instance, replica, sub, kind := unpack4(w[4])
		snap.Events = append(snap.Events, Event{
			Mono: int64(w[0]), Seq: w[1], View: w[2], Detail: w[3],
			Instance: instance, Replica: replica, Sub: sub, Kind: kind,
		})
	}
	return snap
}

// Binary snapshot format (all little-endian):
//
//	magic    [8]byte  "RCCFLTB1"
//	replica  uint16
//	recsize  uint16   bytes per record (40)
//	_        uint32   reserved
//	wall     int64    AnchorWall
//	mono     int64    AnchorMono
//	firstSeq uint64
//	next     uint64
//	count    uint32
//	_        uint32   reserved
//	records  count × recsize bytes: mono i64, seq u64, view u64, detail u64, word4 u64
//
// The same bytes serve /debug/events?format=bin and <data-dir>/flight.bin.
// Decode tolerates a truncated record tail (a crash mid-write loses at most
// the partial record), but not a damaged header.
const (
	binMagic   = "RCCFLTB1"
	recordSize = 40
	headerSize = 8 + 2 + 2 + 4 + 8 + 8 + 8 + 8 + 4 + 4
)

// EncodeBinary writes the snapshot in the flight binary format.
func EncodeBinary(w io.Writer, snap Snapshot) error {
	buf := make([]byte, headerSize+len(snap.Events)*recordSize)
	copy(buf, binMagic)
	binary.LittleEndian.PutUint16(buf[8:], snap.Replica)
	binary.LittleEndian.PutUint16(buf[10:], recordSize)
	binary.LittleEndian.PutUint64(buf[16:], uint64(snap.AnchorWall))
	binary.LittleEndian.PutUint64(buf[24:], uint64(snap.AnchorMono))
	binary.LittleEndian.PutUint64(buf[32:], snap.FirstSeq)
	binary.LittleEndian.PutUint64(buf[40:], snap.Next)
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(snap.Events)))
	off := headerSize
	for _, e := range snap.Events {
		binary.LittleEndian.PutUint64(buf[off:], uint64(e.Mono))
		binary.LittleEndian.PutUint64(buf[off+8:], e.Seq)
		binary.LittleEndian.PutUint64(buf[off+16:], e.View)
		binary.LittleEndian.PutUint64(buf[off+24:], e.Detail)
		binary.LittleEndian.PutUint64(buf[off+32:], e.word4())
		off += recordSize
	}
	_, err := w.Write(buf)
	return err
}

// ErrBadMagic reports a reader handed something that is not a flight dump.
var ErrBadMagic = errors.New("flight: bad magic (not a flight dump)")

// DecodeBinary parses a flight binary dump. A truncated record tail is
// tolerated: every complete record before the cut is returned.
func DecodeBinary(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return snap, fmt.Errorf("flight: short header: %w", err)
	}
	if string(hdr[:8]) != binMagic {
		return snap, ErrBadMagic
	}
	snap.Replica = binary.LittleEndian.Uint16(hdr[8:])
	rec := int(binary.LittleEndian.Uint16(hdr[10:]))
	if rec < recordSize {
		return snap, fmt.Errorf("flight: record size %d too small", rec)
	}
	snap.AnchorWall = int64(binary.LittleEndian.Uint64(hdr[16:]))
	snap.AnchorMono = int64(binary.LittleEndian.Uint64(hdr[24:]))
	snap.FirstSeq = binary.LittleEndian.Uint64(hdr[32:])
	snap.Next = binary.LittleEndian.Uint64(hdr[40:])
	count := int(binary.LittleEndian.Uint32(hdr[48:]))
	snap.Events = make([]Event, 0, count)
	buf := make([]byte, rec)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			break // truncated tail: keep what we have
		}
		instance, replica, sub, kind := unpack4(binary.LittleEndian.Uint64(buf[32:]))
		snap.Events = append(snap.Events, Event{
			Mono:     int64(binary.LittleEndian.Uint64(buf[0:])),
			Seq:      binary.LittleEndian.Uint64(buf[8:]),
			View:     binary.LittleEndian.Uint64(buf[16:]),
			Detail:   binary.LittleEndian.Uint64(buf[24:]),
			Instance: instance, Replica: replica, Sub: sub, Kind: kind,
		})
	}
	return snap, nil
}

// FileName is the on-disk dump name under a replica's data dir.
const FileName = "flight.bin"

// WriteFile dumps the full ring to path atomically (tmp + rename), so a
// kill -9 during the write leaves the previous complete dump, and a kill
// between mirrors leaves a recent prefix of the ring on disk.
func (r *Recorder) WriteFile(path string, replica uint16) error {
	snap := r.Dump(0)
	snap.Replica = replica
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := EncodeBinary(f, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a dump written by WriteFile.
func ReadFile(path string) (Snapshot, error) {
	f, err := os.Open(filepath.Clean(path))
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	return DecodeBinary(f)
}

// DetailString renders an event's detail word per its kind.
func DetailString(e Event) string {
	switch e.Kind {
	case KConnect, KReconnect, KDemote, KAuthFail, KOverflowDrop:
		return fmt.Sprintf("peer=%d", e.Detail)
	case KFsyncStall, KLoopStall:
		return fmt.Sprintf("stall=%s", time.Duration(e.Detail))
	case KSyncPhase:
		return "phase=" + Phase(e.Detail).String()
	case KOfferReject:
		return "reason=" + Reject(e.Detail).String()
	default:
		if e.Detail == 0 {
			return ""
		}
		return fmt.Sprintf("detail=%d", e.Detail)
	}
}

// WriteText renders a snapshot one event per line, oldest first, with
// resolved wall times. The trailing "next=<cursor>" line is the value to
// pass as ?since= on the next poll.
func WriteText(w io.Writer, snap Snapshot) {
	fmt.Fprintf(w, "flight: %d events, ring cursor [%d, %d)\n", len(snap.Events), snap.FirstSeq, snap.Next)
	for _, e := range snap.Events {
		wall := snap.WallTime(e)
		fmt.Fprintf(w, "%s r%d %-9s %-17s inst=%d view=%d seq=%d",
			wall.Format("15:04:05.000000"), e.Replica, e.Sub, e.Kind, e.Instance, e.View, e.Seq)
		if d := DetailString(e); d != "" {
			fmt.Fprintf(w, " %s", d)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "next=%d\n", snap.Next)
}
