// Package statesync is the checkpoint-based state-transfer subsystem: it
// lets a replica that is behind the cluster — wiped, corrupted, or
// partitioned past what in-protocol checkpoint catch-up can bridge — fetch
// the latest application snapshot in bounded chunks plus the ledger suffix
// from snapshot height to head, verify every byte against f+1-attested
// digests, and atomically install the result (internal/store) so it rejoins
// consensus at the cluster head instead of replaying history it no longer
// has.
//
// # Protocol
//
// The fetcher broadcasts a probe (SnapshotRequest with Chunk == NoChunk);
// peers answer with a StateOffer naming their latest snapshot (height, app
// state hash, anchoring block hash, and the machine frontier serialized at
// that snapshot's delivery boundary), their ledger head, and their consensus
// machine's live frontier (sm.StateSyncable). The fetcher has one trust
// rule: f+1 distinct replicas must advertise byte-identical values. At
// least one of them is honest, so every digest it then relies on is real.
// Everything fetched afterwards is verified against those digests, never
// against the serving peer's word:
//
//   - Snapshot chunks are size-checked on arrival (a truncated chunk is
//     refused immediately) and the reassembled state must hash to the
//     vouched-for SnapAppHash — a single flipped bit anywhere fails the
//     whole snapshot and the fetcher retries from another source.
//   - Ledger blocks must chain hash-to-hash from the snapshot anchor (or
//     the local head, on the lag-only path) up to the vouched-for head
//     hash, and each block's commit proof must cover its batch. A peer
//     serving a wrong-height range or substituted blocks breaks the chain
//     at the first forged link and is rotated away from.
//
// A replica that lagged but kept its disk fetches only the block range; a
// wiped replica fetches snapshot plus range. Either way the install is
// crash-atomic (store.InstallState): kill -9 mid-transfer leaves the
// pre-transfer state intact and the transfer restarts from scratch.
//
// The rule applies at two granularities. The live head first: f+1 offers
// identical in every field, the live frontier included, because a frontier
// only one replica vouched for could forge the checkpoint chain anchor and
// poison all future checkpoint adoption. Live heads only agree on a
// quiescent-enough cluster; under load they seldom do. The checkpoint
// second: f+1 offers identical in their snapshot fields and boundary
// frontier (sm.BoundarySyncable). That frontier is a pure function of the
// delivery prefix, so every correct replica that checkpointed a height
// serializes the same bytes however far its live state has run ahead. The
// checkpoint target reaches the snapshot, not the head: the fetcher
// installs snapshot plus boundary frontier, rejoins consensus there, and
// bridges the rest through in-protocol catch-up while the cluster keeps
// deciding. When neither group forms (peers mid-view-change, or replies
// lost), the fetcher retries after RetryInterval.
//
// # Threading
//
// The Manager is driven from the replica's event loop through
// HandleMessage, but does no fetching or serving there: chunk and range
// requests hand off to a dedicated server goroutine (whose transport sends
// back-pressure against the per-peer outbound queues, never against the
// consensus loop), and responses feed the fetcher goroutine that runs the
// sync state machine. Only the final install runs on the event loop — the
// application and machine are single-threaded by contract.
package statesync

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/flight"
	"repro/internal/store"
	"repro/internal/types"
)

// Config parameterizes a Manager.
type Config struct {
	// Self is the local replica.
	Self types.ReplicaID
	// N is the number of replicas in the deployment; a target needs f+1
	// byte-identical offers, f = (N-1)/3.
	N int
	// OfferWait is how long a probe gathers offers (default 400ms).
	OfferWait time.Duration
	// RetryInterval separates sync passes while the replica knows it is
	// behind but could not complete a transfer (default 2s).
	RetryInterval time.Duration
	// SteadyProbe re-probes peers even when the replica believes it is
	// caught up, so silent lag is eventually noticed without any trigger
	// (default 10s; negative disables).
	SteadyProbe time.Duration
	// Flight, when set, receives sync-phase transitions and refusal causes
	// as structured events (nil disables recording).
	Flight *flight.Recorder

	// requestTimeout bounds each request-response round trip; on expiry the
	// fetcher rotates to the next attesting source. Zero selects
	// defaultRequestTimeout; only same-package tests shrink it.
	requestTimeout time.Duration
}

const (
	// chunkBytes is the snapshot chunk size served to peers. The fetch side
	// accepts whatever chunk size the attested offer names.
	chunkBytes = 256 << 10
	// maxRangeBlocks / maxRangeBytes bound one BlockRange response;
	// fetchers paginate.
	maxRangeBlocks        = 256
	maxRangeBytes         = 1 << 20
	defaultRequestTimeout = 2 * time.Second
)

func (c *Config) defaults() {
	if c.requestTimeout <= 0 {
		c.requestTimeout = defaultRequestTimeout
	}
	if c.OfferWait <= 0 {
		c.OfferWait = 400 * time.Millisecond
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 2 * time.Second
	}
	if c.SteadyProbe == 0 {
		c.SteadyProbe = 10 * time.Second
	}
}

// quorum is f+1: that many byte-identical offers include an honest one.
func (c *Config) quorum() int { return (c.N-1)/3 + 1 }

// Host is the set of callbacks the hosting runtime provides. Send,
// Snapshot, and Ledger must be safe for concurrent use (the transport and
// store are); SyncPoint is only called from HandleMessage, i.e. on the
// event loop; Install is only called from functions scheduled via OnLoop.
type Host struct {
	// Send enqueues a message for a peer (non-blocking contract of
	// internal/transport: bounded queue, back-pressure on the caller).
	Send func(to types.ReplicaID, m types.Message)
	// Snapshot returns the latest local checkpoint, nil when none.
	Snapshot func() *store.Snapshot
	// Ledger returns the local chain (thread-safe reads).
	Ledger func() *ledger.Ledger
	// SyncPoint returns the consensus machine's serialized frontier
	// (nil disables serving offers).
	SyncPoint func() []byte
	// Install applies a verified fetch result to store, application, and
	// machine. Runs on the event loop.
	Install func(res *Result) error
	// OnLoop schedules fn on the event loop; returns false when the
	// replica has stopped.
	OnLoop func(fn func()) bool
	// Logf records progress (may be nil).
	Logf func(format string, args ...any)
}

// Result is one verified fetch, ready to install.
type Result struct {
	// Snapshot is the attested checkpoint to install as the new chain
	// base; nil on the lag-only path (the local prefix is intact and only
	// Blocks extend it).
	Snapshot *store.Snapshot
	// Blocks are the verified blocks of heights [from, Target): from is
	// Snapshot.Height when Snapshot is set, the pre-transfer local height
	// otherwise.
	Blocks []*ledger.Block
	// SyncPoint is the attested machine frontier to install after the
	// ledger (empty when the offers carried none).
	SyncPoint []byte
	// Target and TargetHash name the attested head this result reaches.
	Target     uint64
	TargetHash types.Digest
}

// Stats are the manager's observable counters (cumulative).
type Stats struct {
	Probes         uint64 // probe broadcasts sent
	OffersServed   uint64 // StateOffers answered to peers
	OffersRejected uint64 // offers no f+1 byte-identical group vouched for
	ChunksServed   uint64 // snapshot chunks served
	RangesServed   uint64 // block ranges served
	ChunksFetched  uint64 // chunks accepted from peers
	BlocksFetched  uint64 // blocks accepted from peers
	RangeBytes     uint64 // encoded block bytes accepted from peers
	ChunksRefused  uint64 // chunks refused (size or digest mismatch)
	RangesRefused  uint64 // ranges refused (chain-link or proof mismatch)
	SourceRotates  uint64 // source failures that forced rotation
	Installs       uint64 // successful installs
	BytesFetched   uint64 // snapshot bytes accepted
	InstallFailed  uint64 // installs that errored
	TransferNanos  uint64 // wall time spent in successful transfers
	InstalledSnaps uint64 // installs that included a snapshot (vs range-only)
	CkptTargets    uint64 // fetch targets that reach a checkpoint, not a live head
	CkptNoFrontier uint64 // snapshots recorded with no boundary frontier, so offers name no checkpoint
	// RejectCauses counts refusals by flight.Reject code (index = code), so
	// "why did this transfer stall" is answerable from /metrics without
	// correlating log lines: no_quorum vs truncated_chunk vs digest_mismatch
	// vs chain-shape causes are separate series.
	RejectCauses [int(flight.RejectOvercount) + 1]uint64
}

type inMsg struct {
	from types.ReplicaID
	msg  types.Message
}

type serveReq struct {
	from types.ReplicaID
	msg  types.Message
	// fn, when set, is a prepared task (an offer whose snapshot hash and
	// transport send must run off the event loop); msg is then ignored.
	fn func()
}

// Manager runs the state-transfer subsystem of one replica: it serves its
// durable state to lagging peers and heals the local replica when it is the
// lagging one.
type Manager struct {
	cfg  Config
	host Host

	serveQ chan serveReq
	fetchQ chan inMsg
	kickQ  chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	synced atomic.Bool // last pass found the replica at the attested head

	// lastPhase deduplicates KSyncPhase events; only the fetcher goroutine
	// touches it.
	lastPhase flight.Phase

	mu    sync.Mutex
	stats Stats
	// offerSnap/offerHash memoize the app-state hash per snapshot
	// generation: serveOffer runs on the event loop and must not re-hash a
	// large snapshot for every probe (snapshots are immutable once taken,
	// so pointer identity is the generation key).
	offerSnap *store.Snapshot
	offerHash types.Digest

	// ckptHeight/ckptSyncPoint are the machine's boundary frontier at the
	// latest local snapshot (RecordCheckpoint). Only the event loop touches
	// them.
	ckptHeight    uint64
	ckptSyncPoint []byte
}

// New creates a Manager; Start launches its goroutines.
func New(cfg Config, host Host) *Manager {
	cfg.defaults()
	return &Manager{
		cfg:    cfg,
		host:   host,
		serveQ: make(chan serveReq, 64),
		fetchQ: make(chan inMsg, 128),
		kickQ:  make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// Start launches the server and fetcher goroutines and schedules an initial
// sync pass (a freshly started replica probes before assuming it is
// current).
func (m *Manager) Start() {
	m.wg.Add(2)
	go m.serveLoop()
	go m.fetchLoop()
	m.Kick()
}

// Stop terminates the goroutines. In-flight transfers abort; nothing
// half-installed remains (installs are atomic).
func (m *Manager) Stop() {
	m.once.Do(func() { close(m.done) })
	m.wg.Wait()
}

// Kick requests a sync pass (coalescing: a pass already pending absorbs
// it). Machines call this, through the runtime, when they detect a gap.
func (m *Manager) Kick() {
	select {
	case m.kickQ <- struct{}{}:
	default:
	}
}

// Synced reports whether the last completed pass found this replica at the
// attested cluster head.
func (m *Manager) Synced() bool { return m.synced.Load() }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) bump(f func(*Stats)) {
	m.mu.Lock()
	f(&m.stats)
	m.mu.Unlock()
}

// emit records one flight event attributed to this replica; a nil recorder
// is a no-op.
func (m *Manager) emit(kind flight.Kind, seq, detail uint64) {
	m.cfg.Flight.Record(uint16(m.cfg.Self), flight.SubStateSync, kind, 0, 0, seq, detail)
}

// setPhase records a sync-phase transition; repeats of the current phase are
// suppressed so steady-state probing does not flood the ring. Only the
// fetcher goroutine calls it.
func (m *Manager) setPhase(ph flight.Phase, seq uint64) {
	if ph == m.lastPhase {
		return
	}
	m.lastPhase = ph
	m.emit(flight.KSyncPhase, seq, uint64(ph))
}

// reject records one refusal under its cause: the cause-labeled counter and
// a flight event carry the same code, so the metric spike and the timeline
// entry name the same failure. seq carries the height (or, for no_quorum,
// the number of unattested offers) for context.
func (m *Manager) reject(cause flight.Reject, seq uint64) {
	m.bump(func(s *Stats) { s.RejectCauses[cause]++ })
	m.emit(flight.KOfferReject, seq, uint64(cause))
}

func (m *Manager) logf(format string, args ...any) {
	if m.host.Logf != nil {
		m.host.Logf(format, args...)
	}
}

// HandleMessage consumes state-transfer messages; the runtime calls it from
// the event loop before machine dispatch and drops the message when it
// returns true. Serving work is handed to the server goroutine (full queue:
// the request is dropped and the peer retries), responses to the fetcher.
func (m *Manager) HandleMessage(from types.ReplicaID, isClient bool, msg types.Message) bool {
	switch msg.(type) {
	case *types.SnapshotRequest, *types.BlockRangeRequest,
		*types.StateOffer, *types.SnapshotChunk, *types.BlockRange:
	default:
		return false
	}
	if isClient {
		return true // clients have no business in state transfer; drop
	}
	switch v := msg.(type) {
	case *types.SnapshotRequest:
		if v.IsProbe() {
			m.serveOffer(from)
			return true
		}
		select {
		case m.serveQ <- serveReq{from: from, msg: msg}:
		default:
		}
	case *types.BlockRangeRequest:
		select {
		case m.serveQ <- serveReq{from: from, msg: msg}:
		default:
		}
	default: // StateOffer, SnapshotChunk, BlockRange
		select {
		case m.fetchQ <- inMsg{from, msg}:
		default:
		}
	}
	return true
}

// RecordCheckpoint notes the machine frontier bsp serialized at the
// delivery boundary of the snapshot just taken at height; offers carry it
// while that snapshot is the latest. Runs on the event loop (runtime
// saveSnapshot); bsp must not change afterwards. A nil bsp (the machine
// could not serialize its boundary frontier) is counted: offers then name
// no checkpoint until the next snapshot.
func (m *Manager) RecordCheckpoint(height uint64, bsp []byte) {
	m.ckptHeight, m.ckptSyncPoint = height, bsp
	if bsp == nil {
		m.bump(func(s *Stats) { s.CkptNoFrontier++ })
	}
}

// serveOffer answers a probe. The tuple is ASSEMBLED on the event loop —
// the machine frontier (SyncPoint) and the ledger head must be read in the
// same instant for f+1 byte-identical offers from distinct replicas to be
// meaningful — but the snapshot hash (cached per generation, expensive on
// a miss) and the transport send run on the serve goroutine.
func (m *Manager) serveOffer(to types.ReplicaID) {
	if m.host.SyncPoint == nil {
		return
	}
	lg := m.host.Ledger()
	height, headHash := lg.Tip()
	// A height-0 offer is still an answer: it tells the prober this peer is
	// alive and holds nothing — silence would be indistinguishable from a
	// dead peer, and a fresh cluster could never establish that genesis IS
	// the head (so Synced, and /readyz, would hang until first progress).
	sp := m.host.SyncPoint()
	if sp == nil {
		return // machine cannot serialize its frontier
	}
	offer := &types.StateOffer{
		Replica:   m.cfg.Self,
		Height:    height,
		HeadHash:  headHash,
		SyncPoint: sp,
	}
	snap := m.host.Snapshot()
	if snap != nil {
		offer.SnapHeight = snap.Height
		offer.SnapSize = uint64(len(snap.AppState))
		offer.ChunkBytes = chunkBytes
		offer.SnapHeadHash = snap.HeadHash
		offer.SnapStateDigest = snap.StateDigest
		offer.TxnCount = snap.TxnCount
		if snap.Height == m.ckptHeight {
			offer.SnapSyncPoint = m.ckptSyncPoint
		}
	}
	task := serveReq{fn: func() {
		if snap != nil {
			offer.SnapAppHash = m.snapHash(snap)
		}
		m.bump(func(s *Stats) { s.OffersServed++ })
		m.host.Send(to, offer)
	}}
	select {
	case m.serveQ <- task:
	default: // full queue: the prober retries
	}
}

// snapHash returns (computing at most once per snapshot generation) the
// hash of snap's application state.
func (m *Manager) snapHash(snap *store.Snapshot) types.Digest {
	m.mu.Lock()
	if m.offerSnap == snap {
		h := m.offerHash
		m.mu.Unlock()
		return h
	}
	m.mu.Unlock()
	h := types.Hash(snap.AppState)
	m.mu.Lock()
	m.offerSnap, m.offerHash = snap, h
	m.mu.Unlock()
	return h
}

// serveLoop answers chunk and range requests off the event loop; transport
// back-pressure (a slow fetcher) stalls only this goroutine.
func (m *Manager) serveLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case req := <-m.serveQ:
			switch v := req.msg.(type) {
			case *types.SnapshotRequest:
				m.serveChunk(req.from, v)
			case *types.BlockRangeRequest:
				m.serveRange(req.from, v)
			default:
				if req.fn != nil {
					req.fn()
				}
			}
		}
	}
}

func (m *Manager) serveChunk(to types.ReplicaID, req *types.SnapshotRequest) {
	snap := m.host.Snapshot()
	if snap == nil || snap.Height != req.Height {
		return // we no longer hold that generation; the fetcher re-probes
	}
	cb := uint64(chunkBytes)
	total := chunkCount(uint64(len(snap.AppState)), cb)
	if uint64(req.Chunk) >= total {
		return
	}
	off := uint64(req.Chunk) * cb
	end := off + cb
	if end > uint64(len(snap.AppState)) {
		end = uint64(len(snap.AppState))
	}
	m.bump(func(s *Stats) { s.ChunksServed++ })
	m.host.Send(to, &types.SnapshotChunk{
		Replica: m.cfg.Self,
		Height:  req.Height,
		Chunk:   req.Chunk,
		Of:      uint32(total),
		Data:    snap.AppState[off:end],
	})
}

func (m *Manager) serveRange(to types.ReplicaID, req *types.BlockRangeRequest) {
	lg := m.host.Ledger()
	if req.From >= req.To || req.From < lg.Base() || req.From >= lg.Height() {
		return // can't serve: below our base or past our head
	}
	to_ := req.To
	if h := lg.Height(); to_ > h {
		to_ = h
	}
	var blocks [][]byte
	bytes := 0
	for h := req.From; h < to_ && len(blocks) < maxRangeBlocks && bytes < maxRangeBytes; h++ {
		blk := lg.Get(h)
		if blk == nil {
			break
		}
		enc := ledger.EncodeBlock(blk)
		blocks = append(blocks, enc)
		bytes += len(enc)
	}
	if len(blocks) == 0 {
		return
	}
	m.bump(func(s *Stats) { s.RangesServed++ })
	m.host.Send(to, &types.BlockRange{
		Replica: m.cfg.Self,
		From:    req.From,
		Blocks:  blocks,
	})
}

func chunkCount(size, chunkBytes uint64) uint64 {
	if size == 0 {
		return 1 // a zero-byte state still ships as one (empty) chunk
	}
	return (size + chunkBytes - 1) / chunkBytes
}

// ---------------------------------------------------------------------------
// Fetch side
// ---------------------------------------------------------------------------

// fetchLoop is the sync state machine: wait for a trigger, run passes until
// a pass finds the replica at the attested head.
func (m *Manager) fetchLoop() {
	defer m.wg.Done()
	var steady *time.Ticker
	var steadyC <-chan time.Time
	if m.cfg.SteadyProbe > 0 {
		steady = time.NewTicker(m.cfg.SteadyProbe)
		steadyC = steady.C
		defer steady.Stop()
	}
	retry := time.NewTimer(time.Hour)
	retry.Stop()
	defer retry.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-m.kickQ:
		case <-steadyC:
		case <-retry.C:
		}
		for {
			again, err := m.syncPass()
			if err != nil {
				if err != errNoOffers {
					m.logf("statesync: pass failed: %v", err)
				}
				retry.Reset(m.cfg.RetryInterval)
				break
			}
			if !again {
				break
			}
			// Installed something; immediately re-probe — the cluster may
			// have moved on while the transfer ran.
		}
	}
}

// errStopped aborts a pass when the replica shuts down mid-transfer.
var errStopped = fmt.Errorf("statesync: stopped")

// errNoOffers marks a probe that no peer answered — retried quietly (a
// freshly restarted replica's first probe often races the peers' detection
// of its previous incarnation's dead connections, which silently eats the
// first reply per link).
var errNoOffers = fmt.Errorf("statesync: no offers received")

// syncPass runs one probe-and-transfer cycle. It returns (true, nil) when a
// transfer was installed (caller re-probes), (false, nil) when the replica
// is at the attested head or no attested target exists yet, and an error
// when a transfer was needed but could not be completed.
func (m *Manager) syncPass() (bool, error) {
	m.setPhase(flight.PhaseProbe, m.host.Ledger().Height())
	target, sources, info := m.probe()
	if !info.attested {
		if info.sawHigher {
			// Peers claim state above ours but no f+1 of them agree yet —
			// offers raced a view change, or some replies were lost to a
			// peer's dead-link detection. Being behind with no attested
			// target is a retryable condition, not a steady state.
			m.synced.Store(false)
			return false, fmt.Errorf("statesync: peers report higher state but no attested target yet")
		}
		if info.responses == 0 && m.cfg.N > 1 {
			// Nobody answered: peers may be down, empty, or their replies
			// were eaten by dead-link detection. Keep probing quietly.
			return false, errNoOffers
		}
		// Peers answered and none claims more than we have: nothing to do.
		// With enough answers to have attested a higher target had one
		// existed, that silence is positive evidence the replica IS the
		// head — mark it synced so readiness does not hang on a fresh or
		// idle cluster that never needed a transfer.
		if info.responses >= m.cfg.quorum() {
			m.synced.Store(true)
			m.setPhase(flight.PhaseSynced, m.host.Ledger().Height())
		}
		return false, nil
	}
	// One consistent (height, head) pair: reading them separately could
	// straddle a concurrent append on the lag path and mis-anchor the
	// whole range fetch.
	local, anchor := m.host.Ledger().Tip()
	if target.Height <= local {
		m.synced.Store(true)
		m.setPhase(flight.PhaseSynced, local)
		return false, nil
	}
	m.synced.Store(false)
	m.setPhase(flight.PhaseBehind, target.Height)
	m.logf("statesync: behind (local %d, attested head %d from %d peers) — fetching", local, target.Height, len(sources))

	start := time.Now()
	res := &Result{Target: target.Height, TargetHash: target.HeadHash, SyncPoint: target.SyncPoint}
	from := local
	if target.SnapHeight > local {
		m.setPhase(flight.PhaseSnapshot, target.SnapHeight)
		data, err := m.fetchSnapshot(target, sources)
		if err != nil {
			return false, err
		}
		res.Snapshot = &store.Snapshot{
			Height:      target.SnapHeight,
			HeadHash:    target.SnapHeadHash,
			StateDigest: target.SnapStateDigest,
			TxnCount:    target.TxnCount,
			AppState:    data,
		}
		from = target.SnapHeight
		anchor = target.SnapHeadHash
	}
	m.setPhase(flight.PhaseRange, from)
	blocks, err := m.fetchRange(from, target.Height, anchor, target.HeadHash, sources)
	if err != nil {
		return false, err
	}
	res.Blocks = blocks
	m.setPhase(flight.PhaseInstall, target.Height)
	if err := m.install(res); err != nil {
		m.bump(func(s *Stats) { s.InstallFailed++ })
		return false, err
	}
	m.bump(func(s *Stats) {
		s.Installs++
		s.TransferNanos += uint64(time.Since(start))
		if res.Snapshot != nil {
			s.InstalledSnaps++
		}
	})
	m.logf("statesync: installed height %d (%d blocks, snapshot=%v) in %v",
		target.Height, len(blocks), res.Snapshot != nil, time.Since(start))
	return true, nil
}

// ckptKey is the checkpoint identity of an offer: every snapshot field a
// transfer is verified against, plus the boundary frontier the fetcher
// installs with it. Every correct replica that checkpointed a height
// serializes the same ckptKey, whatever its live head.
type ckptKey struct {
	snapHeight      uint64
	snapSize        uint64
	chunkBytes      uint32
	snapAppHash     types.Digest
	snapHeadHash    types.Digest
	snapStateDigest types.Digest
	txnCount        uint64
	snapSyncPoint   string
}

// offerKey is the full identity of an offer: the checkpoint plus the live
// head and frontier. Offers agree only if they are byte-identical in all of
// it.
type offerKey struct {
	ckptKey
	height    uint64
	headHash  types.Digest
	syncPoint string
}

func ckptKeyOf(o *types.StateOffer) ckptKey {
	return ckptKey{
		snapHeight:      o.SnapHeight,
		snapSize:        o.SnapSize,
		chunkBytes:      o.ChunkBytes,
		snapAppHash:     o.SnapAppHash,
		snapHeadHash:    o.SnapHeadHash,
		snapStateDigest: o.SnapStateDigest,
		txnCount:        o.TxnCount,
		snapSyncPoint:   string(o.SnapSyncPoint),
	}
}

func keyOf(o *types.StateOffer) offerKey {
	return offerKey{
		ckptKey:   ckptKeyOf(o),
		height:    o.Height,
		headHash:  o.HeadHash,
		syncPoint: string(o.SyncPoint),
	}
}

// probeInfo summarizes a probe round for the retry policy.
type probeInfo struct {
	attested  bool // an f+1-attested target was found
	sawHigher bool // some offer (attested or not) claimed more state than ours
	responses int  // distinct peers that answered at all
}

// probe broadcasts a probe and gathers offers for OfferWait; it returns the
// highest target that f+1 byte-identical offers vouch for, plus the replicas
// that sent them in ascending ID order. A live head is preferred; failing
// that, the highest checkpoint above the local height.
func (m *Manager) probe() (*types.StateOffer, []types.ReplicaID, probeInfo) {
	local := m.host.Ledger().Height()
	m.drain()
	req := &types.SnapshotRequest{Replica: m.cfg.Self, Chunk: types.NoChunk}
	for i := 0; i < m.cfg.N; i++ {
		id := types.ReplicaID(i)
		if id == m.cfg.Self {
			continue
		}
		m.host.Send(id, req)
	}
	m.bump(func(s *Stats) { s.Probes++ })

	offers := make(map[types.ReplicaID]*types.StateOffer)
	deadline := time.NewTimer(m.cfg.OfferWait)
	defer deadline.Stop()
gather:
	for len(offers) < m.cfg.N-1 {
		select {
		case <-m.done:
			return nil, nil, probeInfo{}
		case <-deadline.C:
			break gather
		case in := <-m.fetchQ:
			if o, isOffer := in.msg.(*types.StateOffer); isOffer && in.from == o.Replica {
				offers[in.from] = o
			}
		}
	}

	info := probeInfo{responses: len(offers)}
	for _, o := range offers {
		if o.Height > local {
			info.sawHigher = true
		}
	}
	q := m.cfg.quorum()
	var target *types.StateOffer
	src, rejected := bestGroup(offers, q, func(o *types.StateOffer) (offerKey, uint64, bool) {
		return keyOf(o), o.Height, true
	})
	if src != nil {
		target = offers[src[0]]
	} else if ckSrc, ckRejected := bestGroup(offers, q, func(o *types.StateOffer) (ckptKey, uint64, bool) {
		return ckptKeyOf(o), o.SnapHeight, o.SnapHeight > local && len(o.SnapSyncPoint) > 0
	}); ckSrc != nil {
		// No live head has f+1 offers, but a checkpoint does. The target
		// reaches the checkpoint: the range fetch is empty and the boundary
		// frontier stands in for the live one.
		src, rejected = ckSrc, ckRejected
		t := *offers[src[0]]
		t.Height = t.SnapHeight
		t.HeadHash = t.SnapHeadHash
		t.SyncPoint = t.SnapSyncPoint
		target = &t
		m.bump(func(s *Stats) { s.CkptTargets++ })
		m.emit(flight.KCkptTarget, t.SnapHeight, uint64(len(src)))
	}
	if rejected > 0 {
		m.bump(func(s *Stats) {
			s.OffersRejected += uint64(rejected)
			s.RejectCauses[flight.RejectNoQuorum] += uint64(rejected)
		})
		m.emit(flight.KOfferReject, uint64(rejected), uint64(flight.RejectNoQuorum))
	}
	if target == nil {
		return nil, nil, info
	}
	info.attested = true
	slices.Sort(src)
	return target, src, info
}

// bestGroup groups the offers key accepts by the key it returns and picks
// the group of at least q members with the greatest height. It returns that
// group's members and how many grouped offers sat in groups below q.
func bestGroup[K comparable](offers map[types.ReplicaID]*types.StateOffer, q int,
	key func(*types.StateOffer) (K, uint64, bool)) ([]types.ReplicaID, int) {
	groups := make(map[K][]types.ReplicaID)
	heights := make(map[K]uint64)
	for from, o := range offers {
		if k, h, ok := key(o); ok {
			groups[k] = append(groups[k], from)
			heights[k] = h
		}
	}
	var best []types.ReplicaID
	var bestHeight uint64
	rejected := 0
	for k, members := range groups {
		switch {
		case len(members) < q:
			rejected += len(members)
		case best == nil || heights[k] > bestHeight:
			best, bestHeight = members, heights[k]
		}
	}
	return best, rejected
}

// drain discards stale responses from a previous pass.
func (m *Manager) drain() {
	for {
		select {
		case <-m.fetchQ:
		default:
			return
		}
	}
}

// await reads fetchQ until match returns true or the request times out.
func (m *Manager) await(match func(in inMsg) bool) bool {
	deadline := time.NewTimer(m.cfg.requestTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-m.done:
			return false
		case <-deadline.C:
			return false
		case in := <-m.fetchQ:
			if match(in) {
				return true
			}
		}
	}
}

// fetchSnapshot downloads and verifies the attested snapshot's application
// state, chunk by chunk, rotating sources on timeout or refusal.
func (m *Manager) fetchSnapshot(t *types.StateOffer, sources []types.ReplicaID) ([]byte, error) {
	if t.SnapSize > 0 && t.ChunkBytes == 0 {
		return nil, fmt.Errorf("statesync: attested offer has zero chunk size")
	}
	total := chunkCount(t.SnapSize, uint64(t.ChunkBytes))
	data := make([]byte, 0, t.SnapSize)
	src := 0
	for chunk := uint64(0); chunk < total; {
		if src >= len(sources) {
			return nil, fmt.Errorf("statesync: no source could serve snapshot chunk %d/%d", chunk, total)
		}
		source := sources[src]
		m.host.Send(source, &types.SnapshotRequest{
			Replica: m.cfg.Self, Height: t.SnapHeight, Chunk: uint32(chunk),
		})
		var got *types.SnapshotChunk
		ok := m.await(func(in inMsg) bool {
			c, isChunk := in.msg.(*types.SnapshotChunk)
			if !isChunk || in.from != source || c.Height != t.SnapHeight || uint64(c.Chunk) != chunk {
				return false
			}
			got = c
			return true
		})
		if !ok {
			m.bump(func(s *Stats) { s.SourceRotates++ })
			src++
			continue
		}
		want := uint64(t.ChunkBytes)
		if chunk == total-1 {
			want = t.SnapSize - chunk*uint64(t.ChunkBytes)
		}
		if uint64(len(got.Data)) != want || uint64(got.Of) != total {
			// Truncated, padded, or mislabeled chunk: refuse it without
			// touching anything and try the next source.
			m.bump(func(s *Stats) { s.ChunksRefused++; s.SourceRotates++ })
			m.reject(flight.RejectTruncated, chunk)
			src++
			continue
		}
		data = append(data, got.Data...)
		m.bump(func(s *Stats) { s.ChunksFetched++; s.BytesFetched += uint64(len(got.Data)) })
		chunk++
	}
	if types.Hash(data) != t.SnapAppHash {
		// One or more chunks were silently corrupted (bit flip, hostile
		// source): the attested digest is the arbiter, and the whole
		// snapshot is refused.
		m.bump(func(s *Stats) { s.ChunksRefused++ })
		m.reject(flight.RejectDigest, t.SnapHeight)
		return nil, fmt.Errorf("statesync: reassembled snapshot fails the attested digest")
	}
	return data, nil
}

// fetchRange downloads and verifies blocks [from, to): every block must
// chain from anchor up to the attested headHash, and every commit proof
// must cover its batch. Verified prefixes survive source rotation.
func (m *Manager) fetchRange(from, to uint64, anchor types.Digest, headHash types.Digest, sources []types.ReplicaID) ([]*ledger.Block, error) {
	var blocks []*ledger.Block
	prev := anchor
	src := 0
	h := from
	for h < to {
		if src >= len(sources) {
			return nil, fmt.Errorf("statesync: no source could serve blocks from height %d", h)
		}
		source := sources[src]
		m.host.Send(source, &types.BlockRangeRequest{Replica: m.cfg.Self, From: h, To: to})
		var got *types.BlockRange
		ok := m.await(func(in inMsg) bool {
			r, isRange := in.msg.(*types.BlockRange)
			if !isRange || in.from != source || r.From != h || len(r.Blocks) == 0 {
				return false
			}
			got = r
			return true
		})
		if !ok {
			m.bump(func(s *Stats) { s.SourceRotates++ })
			src++
			continue
		}
		var rangeBytes uint64
		for _, enc := range got.Blocks {
			rangeBytes += uint64(len(enc))
		}
		verified, nprev, cause, err := verifyBlocks(got.Blocks, h, to, prev)
		if err != nil {
			// Wrong-height, substituted, or malformed blocks: the chain
			// check against the attested anchor caught it; rotate.
			m.logf("statesync: refusing range from replica %d: %v", source, err)
			m.bump(func(s *Stats) { s.RangesRefused++; s.SourceRotates++ })
			m.reject(cause, h)
			src++
			continue
		}
		blocks = append(blocks, verified...)
		m.bump(func(s *Stats) { s.BlocksFetched += uint64(len(verified)); s.RangeBytes += rangeBytes })
		prev = nprev
		h += uint64(len(verified))
	}
	if prev != headHash {
		// The range chained internally but does not end at the attested
		// head: a consistent forgery of the entire suffix. Refuse it all.
		m.bump(func(s *Stats) { s.RangesRefused++ })
		m.reject(flight.RejectHeadMismatch, to)
		return nil, fmt.Errorf("statesync: fetched range does not reach the attested head hash")
	}
	return blocks, nil
}

// verifyBlocks decodes and chain-checks one response's blocks, returning
// the verified blocks, the new chain tip, and — on failure — the reject
// cause the refusal is recorded under.
func verifyBlocks(encoded [][]byte, from, to uint64, prev types.Digest) ([]*ledger.Block, types.Digest, flight.Reject, error) {
	if uint64(len(encoded)) > to-from {
		return nil, prev, flight.RejectOvercount, fmt.Errorf("%d blocks answer a request for %d", len(encoded), to-from)
	}
	blocks := make([]*ledger.Block, 0, len(encoded))
	for i, enc := range encoded {
		blk, err := ledger.DecodeBlock(enc)
		if err != nil {
			return nil, prev, flight.RejectTruncated, err
		}
		if blk.Height != from+uint64(i) {
			return nil, prev, flight.RejectWrongHeight, fmt.Errorf("block %d has height %d, want %d", i, blk.Height, from+uint64(i))
		}
		if blk.PrevHash != prev {
			return nil, prev, flight.RejectChainBreak, fmt.Errorf("block at height %d breaks the hash chain", blk.Height)
		}
		if !blk.Proof.Digest.IsZero() && blk.Proof.Digest != blk.Batch.Digest() {
			return nil, prev, flight.RejectProof, fmt.Errorf("block at height %d carries a proof for a different batch", blk.Height)
		}
		prev = blk.Hash()
		blocks = append(blocks, blk)
	}
	return blocks, prev, 0, nil
}

// install hands the verified result to the event loop and waits.
func (m *Manager) install(res *Result) error {
	errc := make(chan error, 1)
	if !m.host.OnLoop(func() { errc <- m.host.Install(res) }) {
		return errStopped
	}
	select {
	case err := <-errc:
		return err
	case <-m.done:
		return errStopped
	}
}
