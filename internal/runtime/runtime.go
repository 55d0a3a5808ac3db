// Package runtime hosts the deterministic protocol state machines
// (internal/sm) on real goroutines and wall-clock timers, wiring them to a
// transport (in-memory or TCP), the application, the blockchain ledger, and
// clients — the ResilientDB-style replica process.
//
// Architecture (mirroring §V-B): inbound messages funnel into a single
// event loop that drives the machine (machines are sequential by contract);
// each decision is executed in order on that loop (exec.Apply), its block
// is appended to the replica's ledger, and the append's completion answers
// the clients with f+1-collectible replies.
package runtime

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/flight"
	"repro/internal/sm"
	"repro/internal/statesync"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// Replica is one running replica process.
type Replica struct {
	cfg   Config
	host  *host
	trans transport.Transport
	// durable is the replica's ledger when Config.DataDir is set, log the
	// in-memory one otherwise; exactly one of them is non-nil.
	durable *store.DurableLedger
	log     *ledger.Ledger
	sync    *statesync.Manager

	// syncable is cfg.Machine's state-transfer capability, and boundary
	// its delivery-boundary serialization (nil for standalone PBFT); New
	// resolves both once.
	syncable sm.StateSyncable
	boundary sm.BoundarySyncable

	executed atomic.Uint64 // transactions executed by this process

	mu     sync.Mutex
	durErr error

	// replies caches recent client replies so a retransmit of an already
	// executed request is answered instead of silently deduplicated — the
	// classic PBFT resend rule. Without it a client whose replies were
	// lost (replica restart, partition, dropped link) retransmits forever
	// into replicas that all drop the request below their dedup floor,
	// and the client's window slot wedges permanently.
	replies struct {
		sync.Mutex
		m map[types.ClientID]*replyRing
	}

	stallCount atomic.Uint64 // watchdog-detected event-loop stall episodes

	blockHook func(*ledger.Block) // see SetBlockHook
}

// New creates a replica process. Attach a transport with Attach, then Run.
// With Config.DataDir set it opens the durable store, replays the
// write-ahead log (truncating a torn tail, rejecting corruption), restores
// the application to the journaled head state, and resumes the ledger at
// its pre-crash height — so construction can fail when disk state is
// damaged or inconsistent. It also fails when the machine does not
// implement sm.StateSyncable.
func New(cfg Config) (*Replica, error) {
	syncable, ok := cfg.Machine.(sm.StateSyncable)
	if !ok {
		return nil, fmt.Errorf("runtime: machine %T does not implement sm.StateSyncable", cfg.Machine)
	}
	boundary, _ := cfg.Machine.(sm.BoundarySyncable)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	cfg.Flight.defaults()
	r := &Replica{
		cfg:      cfg,
		host:     newHost(cfg.QueueDepth),
		syncable: syncable,
		boundary: boundary,
	}
	if cfg.DataDir == "" {
		r.log = ledger.New()
		r.registerMetrics()
		return r, nil
	}
	var onCommit func(records int, bytes int64, took time.Duration)
	if cfg.Metrics != nil {
		fsync := cfg.Metrics.WALFsync
		met := cfg.Metrics
		id := uint16(cfg.ID)
		onCommit = func(_ int, _ int64, took time.Duration) {
			fsync.Observe(took)
			if took >= fsyncStallThreshold {
				// The disk held up a commit point long enough to matter:
				// leave a breadcrumb the post-mortem timeline can line up
				// against demotions and view changes.
				met.Emit(id, flight.SubStore, flight.KFsyncStall, 0, 0, 0, uint64(took))
			}
		}
	}
	dl, err := store.Open(cfg.DataDir, store.Options{
		Sync:            cfg.Journaling.Sync,
		AsyncQueueDepth: cfg.Journaling.queueDepth,
		AsyncOnCommit:   onCommit,
		PruneWAL:        cfg.Journaling.PruneWAL,
		Failpoints:      cfg.Journaling.Failpoints,
		Identity:        fmt.Sprintf("replica-%d", cfg.ID),
	})
	if err != nil {
		return nil, err
	}
	if _, err := dl.RestoreApp(cfg.App); err != nil {
		dl.Close()
		return nil, err
	}
	r.durable = dl
	r.initStateSync()
	r.registerMetrics()
	return r, nil
}

// registerMetrics publishes the replica's own instruments — executed-work
// counters, ledger head gauges, the durability health gauge, WAL counters,
// and the statesync counters — into the catalog's registry. Every series
// carries a replica="ID" label so replicas of one in-process cluster can
// share a registry without colliding.
func (r *Replica) registerMetrics() {
	reg := r.cfg.Metrics.Registry()
	if reg == nil {
		return
	}
	rl := fmt.Sprintf(`replica="%d"`, r.cfg.ID)
	reg.CounterFunc("rcc_txns_executed_total", rl, "transactions executed by this process", func() float64 {
		return float64(r.Executed())
	})
	reg.GaugeFunc("rcc_durability_healthy", rl, "1 while the durable store is healthy or disabled, 0 once the sticky durability error is set", func() float64 {
		if r.DurabilityErr() != nil {
			return 0
		}
		return 1
	})
	reg.GaugeFunc("rcc_ledger_height", rl, "blocks in the journal", func() float64 {
		return float64(r.Ledger().Height())
	})
	reg.CounterFunc("rcc_loop_stalls_total", rl, "event-loop stall episodes detected by the watchdog", func() float64 {
		return float64(r.stallCount.Load())
	})
	if dl := r.durable; dl != nil {
		// A state-transfer install replaces the log and its appender, so
		// each scrape resolves them afresh instead of capturing a pointer.
		reg.CounterFunc("wal_appends_total", rl, "WAL records appended", func() float64 {
			appends, _ := dl.WAL().Stats()
			return float64(appends)
		})
		reg.CounterFunc("wal_fsyncs_total", rl, "WAL commit points (fsyncs) issued", func() float64 {
			_, syncs := dl.WAL().Stats()
			return float64(syncs)
		})
		reg.CounterFunc("wal_appender_submitted_total", rl, "records submitted to the WAL appender", func() float64 {
			submitted, _ := dl.Appender().Stats()
			return float64(submitted)
		})
		reg.CounterFunc("wal_appender_batches_total", rl, "WAL appender commit points issued", func() float64 {
			_, batches := dl.Appender().Stats()
			return float64(batches)
		})
	}
	if r.sync != nil {
		r.sync.RegisterMetrics(reg)
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// flight returns the replica's flight recorder (nil when metrics are off).
func (r *Replica) flight() *flight.Recorder {
	if r.cfg.Metrics == nil {
		return nil
	}
	return r.cfg.Metrics.Flight
}

// emit records one flight event attributed to this replica.
func (r *Replica) emit(sub flight.Sub, kind flight.Kind, seq, detail uint64) {
	r.cfg.Metrics.Emit(uint16(r.cfg.ID), sub, kind, 0, 0, seq, detail)
}

// dumpFlight persists the ring to <DataDir>/flight.bin — the black box a
// post-mortem reads when the process (or its admin endpoint) is gone.
func (r *Replica) dumpFlight() {
	fr := r.flight()
	if fr == nil || r.cfg.DataDir == "" {
		return
	}
	if err := fr.WriteFile(filepath.Join(r.cfg.DataDir, flight.FileName), uint16(r.cfg.ID)); err != nil {
		r.logf("runtime: flight dump failed: %v", err)
	}
}

func (r *Replica) setDurErr(err error) {
	r.mu.Lock()
	first := r.durErr == nil
	if first {
		r.durErr = err
	}
	r.mu.Unlock()
	if !first {
		return
	}
	// Poisoning is terminal for this process: record the event first so it
	// is part of the dump, then persist the ring synchronously — the
	// periodic mirror may never get another turn.
	r.emit(flight.SubStore, flight.KDurabilityPoison, 0, 0)
	r.dumpFlight()
}

// DurabilityErr returns the first journaling or checkpointing failure (nil
// while the durable store is healthy or disabled).
func (r *Replica) DurabilityErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.durErr
}

// Attach wires the transport (must precede Run). When metrics are live and
// the transport is TCP, its counters and per-link queue gauges join the
// registry.
func (r *Replica) Attach(t transport.Transport) {
	r.trans = t
	reg := r.cfg.Metrics.Registry()
	if reg == nil {
		return
	}
	tcp, ok := t.(*transport.TCP)
	if !ok {
		return
	}
	rl := fmt.Sprintf(`replica="%d"`, r.cfg.ID)
	counters := []struct {
		name, help string
		get        func(transport.TCPStats) uint64
	}{
		{"transport_msgs_sent_total", "messages handed to the framing layer", func(s transport.TCPStats) uint64 { return s.MsgsSent }},
		{"transport_frames_sent_total", "coalesced frames written to sockets", func(s transport.TCPStats) uint64 { return s.BatchesSent }},
		{"transport_peer_dropped_total", "replica-bound messages dropped on a down link", func(s transport.TCPStats) uint64 { return s.PeerDropped }},
		{"transport_client_dropped_total", "client-bound messages dropped on overflow", func(s transport.TCPStats) uint64 { return s.ClientDropped }},
		{"transport_reconnects_total", "peer link redials", func(s transport.TCPStats) uint64 { return s.Reconnects }},
		{"transport_bad_header_total", "frames rejected for a malformed header", func(s transport.TCPStats) uint64 { return s.BadHeader }},
		{"transport_decode_errors_total", "messages that failed decoding", func(s transport.TCPStats) uint64 { return s.DecodeErrs }},
		{"transport_encode_errors_total", "messages that failed encoding", func(s transport.TCPStats) uint64 { return s.EncodeErrs }},
		{"transport_auth_rejects_total", "records dropped for a bad authenticator tag", func(s transport.TCPStats) uint64 { return s.AuthRejects }},
		{"transport_auth_demotions_total", "inbound links closed after consecutive auth failures", func(s transport.TCPStats) uint64 { return s.AuthDemotions }},
		{"transport_digest_cache_hits_total", "verified-digest cache hits (re-verification skipped)", func(s transport.TCPStats) uint64 { return s.DigestHits }},
		{"transport_digest_cache_misses_total", "verified-digest cache misses", func(s transport.TCPStats) uint64 { return s.DigestMisses }},
	}
	for _, c := range counters {
		get := c.get
		reg.CounterFunc(c.name, rl, c.help, func() float64 { return float64(get(tcp.Stats())) })
	}
	reg.GaugeFunc("transport_peer_queue_depth", rl, "messages waiting across outbound replica links", func() float64 {
		total := 0
		for _, l := range tcp.LinkStats() {
			total += l.Queued
		}
		return float64(total)
	})
	reg.GaugeFunc("transport_peers_connected", rl, "outbound replica links currently connected", func() float64 {
		n := 0
		for _, l := range tcp.LinkStats() {
			if l.Connected {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("transport_client_links", rl, "connected client links", func() float64 {
		links, _ := tcp.ClientLinks()
		return float64(links)
	})
	reg.GaugeFunc("transport_client_queue_depth", rl, "messages waiting toward clients", func() float64 {
		_, queued := tcp.ClientLinks()
		return float64(queued)
	})
}

// Ledger returns the replica's chain, never nil: the durable store's view
// when Config.DataDir is set, else the in-memory ledger. Durable replicas
// resolve it through the store: a state-transfer install replaces the
// ledger object, and this accessor always names the live one.
func (r *Replica) Ledger() *ledger.Ledger {
	if r.durable != nil {
		return r.durable.Memory()
	}
	return r.log
}

// SetBlockHook installs fn to observe every block the replica appends to its
// ledger, with its batch, on the event loop right after the append (blocks
// installed by state transfer are not appended here and are not observed).
// A durable replica keeps a block's body in memory only until its record is
// on disk, and a pruned journal drops it altogether, so a harness that must
// see every block (internal/chaos) observes them here rather than by
// reading the ledger later. Call before Run; fn must be fast and must not
// retain the batch beyond the call.
func (r *Replica) SetBlockHook(fn func(*ledger.Block)) { r.blockHook = fn }

// Durable returns the durable store (nil unless Config.DataDir).
func (r *Replica) Durable() *store.DurableLedger { return r.durable }

// StateDigest returns the application's state digest. The application is
// single-threaded by contract: call this only on a replica that is not
// running, or from inside Inspect.
func (r *Replica) StateDigest() types.Digest { return r.cfg.App.StateDigest() }

// Executed returns the number of transactions this process executed since
// it started. Blocks restored from disk or installed by state transfer are
// not counted; the chain total is Ledger().TxnCount().
func (r *Replica) Executed() uint64 { return r.executed.Load() }

// DeliverReplica implements transport.Endpoint.
func (r *Replica) DeliverReplica(from types.ReplicaID, m types.Message) {
	r.host.enqueue(event{from: sm.FromReplica(from), msg: m})
}

// DeliverClient implements transport.Endpoint.
func (r *Replica) DeliverClient(from types.ClientID, m types.Message) {
	if req, ok := m.(*types.ClientRequest); ok {
		// A request speaks only for the client whose link delivered it;
		// otherwise any authenticated client could queue transactions under
		// another client's identity. An empty one speaks for nobody.
		if len(req.Txns) == 0 || slices.ContainsFunc(req.Txns, func(tx types.Transaction) bool { return tx.Client != from }) {
			return
		}
		if met := r.cfg.Metrics; met != nil {
			met.ClientRequests.Inc()
		}
		if req = r.answerRetransmits(req); req == nil {
			return
		}
		m = req
	}
	r.host.enqueue(event{from: sm.FromClient(from), msg: m})
}

// Run starts the event loop (and, when configured, the state-transfer
// manager — a freshly started replica probes its peers before assuming its
// disk is current). It returns immediately; Stop shuts down.
func (r *Replica) Run() {
	r.host.spawn(r.loop)
	if r.cfg.Metrics != nil {
		r.host.spawn(func() { r.watchdog(r.cfg.Flight.stallThreshold) })
	}
	if iv := r.cfg.Flight.MirrorInterval; iv > 0 && r.flight() != nil && r.cfg.DataDir != "" {
		r.host.spawn(func() { r.mirrorFlight(iv) })
	}
	if r.sync != nil {
		r.sync.Start()
	}
}

// Stop shuts the replica down and waits for the loop to exit. The durable
// store drains: every in-flight block gets its commit point, and its
// deferred client acks reach the transport before it closes.
func (r *Replica) Stop() { r.shutdown(false) }

// Kill shuts the replica down the way kill -9 would: the event loop stops,
// but the durable store closes abruptly — in-flight appends are
// dropped without their final fsync (and an armed torn-write failpoint
// fires), deferred client acks never flush — so only state the WAL already
// made durable survives into the next incarnation. Peers observe exactly
// what a process death looks like: sockets torn down mid-stream.
func (r *Replica) Kill() { r.shutdown(true) }

// shutdown stops the loop and its helpers, then the state-transfer manager,
// the durable store (abruptly for Kill) and the transport, in that order.
func (r *Replica) shutdown(abrupt bool) {
	r.host.halt()
	// The state-transfer manager stops before the store closes: an
	// in-flight transfer aborts (installs are atomic, nothing partial
	// remains) and no serve request can touch a closing store.
	if r.sync != nil {
		r.sync.Stop()
	}
	// Close the durable store BEFORE the transport: a draining Close
	// completes every in-flight block's commit point and its durability
	// callback enqueues the deferred client acks onto the transport's
	// per-client queues, which the transport's Close then flushes (bounded
	// by its drain timeout).
	if r.durable != nil {
		if abrupt {
			r.durable.CloseAbrupt()
		} else if err := r.durable.Close(); err != nil {
			r.setDurErr(err)
		}
	}
	if r.trans != nil {
		r.trans.Close()
	}
}

// saveSnapshot persists an application checkpoint at the current chain
// head. Must run on the event loop (the application is single-threaded).
func (r *Replica) saveSnapshot() {
	if r.durable == nil {
		return
	}
	// After a journaling failure the in-memory chain runs ahead of disk;
	// a checkpoint taken now would claim heights the WAL never stored and
	// block the next restart. Stop checkpointing once durability is gone.
	if r.DurabilityErr() != nil {
		return
	}
	snapper, ok := r.cfg.App.(store.Snapshotter)
	if !ok {
		return
	}
	if err := r.durable.Snapshot(snapper.Snapshot()); err != nil {
		r.setDurErr(err)
		return
	}
	r.emit(flight.SubStore, flight.KSnapshotCommit, r.durable.Memory().Height(), 0)
	// Offers name the fresh checkpoint with the machine frontier at its
	// delivery boundary, so f+1 replicas that checkpointed this height vouch
	// for the same bytes however far their live heads run ahead.
	// saveSnapshot runs for boundary-syncable machines only at the boundary
	// (Checkpoint), so the frontier read here IS the boundary frontier.
	// Snapshot is a no-op on an empty chain, so there may be none.
	if snap := r.durable.LatestSnapshot(); snap != nil && r.sync != nil && r.boundary != nil {
		r.sync.RecordCheckpoint(snap.Height, r.boundary.BoundarySyncPoint())
	}
}
