// Package runtime hosts the deterministic protocol state machines
// (internal/sm) on real goroutines and wall-clock timers, wiring them to a
// transport (in-memory or TCP), the execution engine, the blockchain
// ledger, and clients — the ResilientDB-style replica process.
//
// Architecture (mirroring §V-B): inbound messages funnel into a single
// event loop that drives the machine (machines are sequential by contract);
// decisions flow into the ordered executor, which applies batches to the
// application, journals blocks, and answers clients with f+1-collectible
// replies.
package runtime

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/statesync"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// JournalOptions groups the durability tunables that apply when
// Config.DataDir is set.
type JournalOptions struct {
	// Sync selects the WAL sync policy. Under the default every client
	// reply follows an fsync covering its block; under wal.SyncNone a
	// completion means flushed to the OS, not fsynced.
	Sync wal.SyncPolicy
	// Async is accepted and ignored: journaling is always pipelined. The
	// field remains only because benchmark/cluster.go still sets it.
	Async bool
	// SnapshotEvery persists an application checkpoint every N decided
	// blocks when App implements store.Snapshotter (0 disables periodic
	// checkpoints; RCC's dynamic checkpoints still persist on demand).
	SnapshotEvery uint64
	// PruneWAL reclaims write-ahead-log segments made redundant by each
	// persisted checkpoint (see store.Options.PruneWAL): recovery replays
	// snapshot + suffix, so disk usage stays proportional to the
	// checkpoint interval instead of total history.
	PruneWAL bool
	// Failpoints, when non-nil, injects disk faults into the WAL
	// (fsync-error, torn-write; see wal.Failpoints). Chaos/test wiring
	// only.
	Failpoints *wal.Failpoints

	// queueDepth bounds blocks executed but not yet durable (zero selects
	// wal.DefaultQueueDepth); only same-package tests shrink it. When it
	// fills, execution back-pressures by blocking the event loop until the
	// disk catches up.
	queueDepth int
}

const (
	// stallThreshold is how long the event loop may fail to service a
	// watchdog probe before a loop_stalled event is recorded and
	// rcc_loop_stalls_total increments. One event fires per stall episode,
	// not per probe interval.
	stallThreshold = 500 * time.Millisecond
	// fsyncStallThreshold is the WAL commit-point latency above which an
	// fsync_stall event is recorded, detail = latency in nanoseconds.
	fsyncStallThreshold = 250 * time.Millisecond
)

// FlightOptions tunes the black-box flight recorder's runtime hooks.
type FlightOptions struct {
	// MirrorInterval is the period of the crash-safe ring mirror written to
	// <DataDir>/flight.bin (default 2s; requires DataDir; negative
	// disables). kill -9 then loses at most one interval of events; a
	// sticky durability failure additionally dumps synchronously.
	MirrorInterval time.Duration

	// stallThreshold overrides the watchdog's stallThreshold in
	// same-package tests (zero selects it).
	stallThreshold time.Duration
}

func (o *FlightOptions) defaults() {
	if o.stallThreshold == 0 {
		o.stallThreshold = stallThreshold
	}
	if o.MirrorInterval == 0 {
		o.MirrorInterval = 2 * time.Second
	}
}

// StateSyncOptions groups the checkpoint-based state-transfer tunables.
type StateSyncOptions struct {
	// Enabled arms the subsystem (requires Config.DataDir and a Machine
	// implementing sm.StateSyncable): the replica serves its snapshots
	// and ledger to lagging peers, and when it is itself behind — wiped,
	// corrupted, or partitioned past what checkpoint catch-up bridges —
	// it fetches the f+1-attested snapshot plus ledger suffix from
	// peers, installs it crash-atomically, and rejoins consensus at the
	// cluster head.
	Enabled bool
	// OfferWait / Retry / SteadyProbe tune the manager's probe gathering
	// window, failed-pass retry interval, and the steady-state re-probe
	// period (defaults in internal/statesync; tests shrink them).
	OfferWait   time.Duration
	Retry       time.Duration
	SteadyProbe time.Duration
	// AttestScheme enables checkpoint-boundary attestation when the
	// machine implements sm.BoundarySyncable: replicas exchange threshold
	// shares over each checkpoint, and a fetcher accepts one
	// aggregate-verified offer when load keeps f+1 byte-identical offers
	// from forming. All replicas must share the scheme's group secret.
	AttestScheme *crypto.ThresholdScheme
}

// Config parameterizes one replica process.
type Config struct {
	// ID is the local replica.
	ID types.ReplicaID
	// Params are the deployment's quorum parameters.
	Params quorum.Params
	// Machine is the consensus machine to host (RCC replica, standalone
	// PBFT, ...).
	Machine sm.Machine
	// App is the deterministic application decisions execute against.
	App exec.Application
	// Journal enables the blockchain ledger.
	Journal bool
	// DataDir enables the durable storage subsystem (implies Journal):
	// every decided batch is journaled through a write-ahead log under
	// this directory — pipelined, so the event loop never waits out an
	// fsync and client replies for a block are deferred until its record
	// is durable — and New restores ledger height and application
	// state from disk before the replica starts — a restarted replica
	// resumes at its pre-crash height with an identical head hash and
	// state digest instead of demanding state transfer from peers.
	DataDir string
	// Journaling tunes durability when DataDir is set.
	Journaling JournalOptions
	// StateSync configures the state-transfer subsystem.
	StateSync StateSyncOptions
	// Flight tunes the flight recorder's watchdog, fsync-stall detector,
	// and crash-safe disk mirror (the recorder itself lives in Metrics).
	Flight FlightOptions
	// QueueDepth bounds the inbound event queue (default 4096).
	QueueDepth int
	// ReplyToClients answers the clients of executed batches.
	ReplyToClients bool
	// Metrics is the replica's instrument catalog (shared with the
	// consensus machine). New wires it through the execution engine and
	// durable store, registers the replica's own gauges plus WAL and
	// statesync counters — each labeled replica="ID" so an in-process
	// cluster can share one registry — and Attach adds the transport's.
	// Nil disables instrumentation.
	Metrics *obs.NodeMetrics
	// Logf, when set, receives runtime and state-transfer progress lines.
	Logf func(format string, args ...any)
}

// Replica is one running replica process.
type Replica struct {
	cfg     Config
	trans   transport.Transport
	engine  *exec.Engine
	log     *ledger.Ledger
	durable *store.DurableLedger
	sync    *statesync.Manager

	events chan event
	timers struct {
		sync.Mutex
		m map[sm.TimerID]*time.Timer
	}
	start time.Time

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	mu        sync.Mutex
	delivered uint64
	executed  uint64
	durErr    error

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

	// snapDue defers a cadence-triggered checkpoint to the machine's next
	// delivery boundary (sm.BoundarySyncable machines only; event-loop
	// state, no lock). The cadence fires MID-wave — inside Deliver — where
	// different replicas observe different in-flight frontiers; the machine
	// consumes the flag at the wave boundary (sm.DeferredCheckpointer), the
	// one point where its frontier is a pure function of the delivery
	// prefix and a checkpoint can be attested across replicas.
	snapDue bool

	stallCount atomic.Uint64 // watchdog-detected event-loop stall episodes
}

type event struct {
	from    sm.Source
	msg     types.Message
	timer   sm.TimerID
	isTimer bool
	fn      func()
}

// New creates a replica process. Attach a transport with Attach, then Run.
// With Config.DataDir set it opens the durable store, replays the
// write-ahead log (truncating a torn tail, rejecting corruption), restores
// the application to the journaled head state, and resumes the ledger at
// its pre-crash height — so construction can fail when disk state is
// damaged or inconsistent.
func New(cfg Config) (*Replica, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	cfg.Flight.defaults()
	r := &Replica{
		cfg:     cfg,
		events:  make(chan event, cfg.QueueDepth),
		stopped: make(chan struct{}),
		start:   time.Now(),
	}
	r.timers.m = make(map[sm.TimerID]*time.Timer)
	var journal exec.Journal
	if cfg.DataDir != "" {
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
		txns, err := dl.RestoreApp(cfg.App)
		if err != nil {
			dl.Close()
			return nil, err
		}
		r.durable = dl
		r.log = dl.Memory()
		journal = durableJournal{r}
		r.engine = exec.NewEngine(cfg.App, journal)
		r.engine.SetMetrics(cfg.Metrics)
		r.engine.Restore(txns)
		r.initStateSync()
		r.registerMetrics()
		return r, nil
	}
	if cfg.Journal {
		r.log = ledger.New()
		journal = exec.MemJournal{Ledger: r.log}
	}
	r.engine = exec.NewEngine(cfg.App, journal)
	r.engine.SetMetrics(cfg.Metrics)
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
		if l := r.Ledger(); l != nil {
			return float64(l.Height())
		}
		return 0
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

// initStateSync wires the checkpoint-based state-transfer subsystem when
// configured and the machine supports it. The manager's goroutines start in
// Run (after the transport is attached).
func (r *Replica) initStateSync() {
	if !r.cfg.StateSync.Enabled {
		return
	}
	if _, ok := r.cfg.Machine.(sm.StateSyncable); !ok {
		r.logf("runtime: machine %T does not support state transfer; StateSync disabled", r.cfg.Machine)
		return
	}
	r.sync = statesync.New(statesync.Config{
		Self:          r.cfg.ID,
		N:             r.cfg.Params.N,
		Attest:        r.cfg.Params.FaultDetection(),
		OfferWait:     r.cfg.StateSync.OfferWait,
		RetryInterval: r.cfg.StateSync.Retry,
		SteadyProbe:   r.cfg.StateSync.SteadyProbe,
		AttestScheme:  r.attestScheme(),
		Flight:        r.flight(),
	}, statesync.Host{
		Send: func(to types.ReplicaID, m types.Message) {
			if r.trans != nil {
				_ = r.trans.Send(to, m)
			}
		},
		Snapshot: func() *store.Snapshot { return r.durable.LatestSnapshot() },
		Ledger:   func() *ledger.Ledger { return r.durable.Memory() },
		SyncPoint: func() []byte {
			return r.cfg.Machine.(sm.StateSyncable).SyncPoint()
		},
		Install: r.installFromSync,
		OnLoop: func(fn func()) bool {
			select {
			case r.events <- event{fn: fn}:
				return true
			case <-r.stopped:
				return false
			}
		},
		Logf: r.logf,
	})
}

// attestScheme returns the checkpoint-attestation scheme to wire into the
// state-transfer manager: configured AND usable (the machine must serialize
// boundary frontiers, or no checkpoint could ever be attested).
func (r *Replica) attestScheme() *crypto.ThresholdScheme {
	if r.cfg.StateSync.AttestScheme == nil {
		return nil
	}
	if _, ok := r.cfg.Machine.(sm.BoundarySyncable); !ok {
		r.logf("runtime: machine %T cannot serialize boundary frontiers; checkpoint attestation disabled", r.cfg.Machine)
		return nil
	}
	return r.cfg.StateSync.AttestScheme
}

// StateSync returns the state-transfer manager (nil unless Config.StateSync
// armed it).
func (r *Replica) StateSync() *statesync.Manager { return r.sync }

// installFromSync applies a verified state transfer. Runs on the event
// loop: the application and machine are single-threaded by contract, and no
// execution can interleave with the store swap.
func (r *Replica) installFromSync(res *statesync.Result) error {
	if err := r.DurabilityErr(); err != nil {
		// The disk already failed this process; installing over it would
		// just hide the fault. Operators restart the replica instead.
		return err
	}
	local := r.durable.Memory().Height()
	if res.Target <= local {
		return nil // consensus caught this replica up while the fetch ran
	}
	// Reject a malformed or incompatible machine frontier BEFORE the store
	// commits anything: at this point the whole transfer is still cleanly
	// retryable, whereas a post-commit failure tears the replica.
	if len(res.SyncPoint) > 0 {
		if err := r.cfg.Machine.(sm.StateSyncable).ValidateSyncPoint(res.SyncPoint); err != nil {
			return err
		}
	}
	if res.Snapshot != nil {
		// Full install: rebase the store, then rebuild the application
		// from the installed snapshot + suffix (with per-block digest
		// audits, exactly like a restart).
		if err := r.durable.InstallState(res.Snapshot, res.Blocks); err != nil {
			return err
		}
		txns, err := r.durable.RestoreApp(r.cfg.App)
		if err != nil {
			// The store committed the new state but the application could
			// not be rebuilt onto it: the replica is torn. Poison it
			// (DurabilityErr) so it stops acknowledging and operators
			// restart it — a reopen re-runs this restore from the durable
			// install — instead of running on and reporting itself synced.
			r.setDurErr(err)
			return err
		}
		r.engine.Restore(txns)
	} else {
		// Lag-only install: the local prefix is intact, the fetched blocks
		// extend it; execute them against the live application. Blocks
		// consensus delivered while the fetch ran are trimmed off the
		// front (they are the same chain — InstallBlocks re-checks the
		// hash link onto the local head).
		blocks := res.Blocks
		for len(blocks) > 0 && blocks[0].Height < local {
			blocks = blocks[1:]
		}
		if len(blocks) == 0 {
			return nil
		}
		if blocks[0].Height != local {
			return fmt.Errorf("runtime: catch-up range starts at %d, local height is %d",
				blocks[0].Height, local)
		}
		if err := r.durable.InstallBlocks(blocks); err != nil {
			return err
		}
		for _, blk := range blocks {
			for i := range blk.Batch.Txns {
				r.cfg.App.Execute(blk.Batch.Txns[i])
			}
			if r.cfg.App.StateDigest() != blk.StateHash {
				// The blocks are journaled but the application diverged
				// applying them: torn replica, same poisoning rationale as
				// the snapshot path.
				err := fmt.Errorf("runtime: catch-up replay diverged at height %d", blk.Height)
				r.setDurErr(err)
				return err
			}
		}
		r.engine.Restore(r.durable.Memory().TxnCount())
	}
	// The machine rejoins at the attested frontier; rounds it committed
	// while the transfer ran deliver (and execute) from here.
	if len(res.SyncPoint) > 0 {
		if err := r.cfg.Machine.(sm.StateSyncable).InstallSyncPoint(res.SyncPoint); err != nil {
			// Store and application are at the target but the machine is
			// not: poison rather than run split-brained. A restart
			// re-derives the machine frontier from a fresh sync.
			r.setDurErr(err)
			return err
		}
	}
	return nil
}

// durableJournal routes the engine's block appends through the durable
// store. A WAL failure means the in-memory chain is ahead of disk; the
// error sticks (DurabilityErr) so operators stop the replica instead of
// running with a silent durability gap.
type durableJournal struct{ r *Replica }

// AppendAsync implements exec.Journal over the store's pipelined commit
// path: the completion callback runs on the WAL committer goroutine
// once the block's record is durable (carrying nil) or the journal has
// failed (sticky error, also recorded for DurabilityErr).
func (j durableJournal) AppendAsync(batch *types.Batch, proof ledger.Proof, state types.Digest, done func(err error)) *ledger.Block {
	return j.r.durable.AppendAsync(batch, proof, state, func(_ uint64, err error) {
		if err != nil {
			j.r.setDurErr(err)
		}
		done(err)
	})
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

// Ledger returns the journal (nil unless Config.Journal or Config.DataDir).
// Durable replicas resolve it through the store: a state-transfer install
// replaces the ledger object, and this accessor always names the live one.
func (r *Replica) Ledger() *ledger.Ledger {
	if r.durable != nil {
		return r.durable.Memory()
	}
	return r.log
}

// Durable returns the durable store (nil unless Config.DataDir).
func (r *Replica) Durable() *store.DurableLedger { return r.durable }

// StateDigest returns the application's state digest. The application is
// single-threaded by contract: call this only on a replica that is not
// running, or from inside Inspect.
func (r *Replica) StateDigest() types.Digest { return r.engine.StateDigest() }

// Executed returns the number of transactions executed by this process
// (restored transactions are not re-counted; see the engine's Executed for
// the chain total).
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// DeliverReplica implements transport.Endpoint.
func (r *Replica) DeliverReplica(from types.ReplicaID, m types.Message) {
	select {
	case r.events <- event{from: sm.FromReplica(from), msg: m}:
	case <-r.stopped:
	}
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
		if r.cfg.ReplyToClients {
			if req = r.answerRetransmits(req); req == nil {
				return
			}
			m = req
		}
	}
	select {
	case r.events <- event{from: sm.FromClient(from), msg: m}:
	case <-r.stopped:
	}
}

// Run starts the event loop (and, when configured, the state-transfer
// manager — a freshly started replica probes its peers before assuming its
// disk is current). It returns immediately; Stop shuts down.
func (r *Replica) Run() {
	r.wg.Add(1)
	go r.loop()
	if r.cfg.Metrics != nil {
		r.wg.Add(1)
		go r.watchdog(r.cfg.Flight.stallThreshold)
	}
	if iv := r.cfg.Flight.MirrorInterval; iv > 0 && r.flight() != nil && r.cfg.DataDir != "" {
		r.wg.Add(1)
		go r.mirrorFlight(iv)
	}
	if r.sync != nil {
		r.sync.Start()
	}
}

// watchdog detects a wedged event loop: it enqueues a probe event and
// measures how long the loop takes to service it. A probe outstanding past
// the threshold records one loop_stalled flight event (detail = observed
// delay in nanoseconds) and one rcc_loop_stalls_total increment; the episode
// is not re-reported until the probe finally drains, so a 10-second wedge is
// one event, not twenty.
func (r *Replica) watchdog(threshold time.Duration) {
	defer r.wg.Done()
	interval := threshold / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	ack := make(chan struct{}, 1)
	probe := event{fn: func() {
		select {
		case ack <- struct{}{}:
		default:
		}
	}}
	var sentAt time.Time // zero: no probe outstanding
	enqueued := false    // probe handed to the queue (false while it is full)
	reported := false
	for {
		select {
		case <-r.stopped:
			return
		case <-tick.C:
		}
		select {
		case <-ack:
			sentAt, enqueued, reported = time.Time{}, false, false
		default:
		}
		if sentAt.IsZero() {
			sentAt = time.Now()
		}
		if !enqueued {
			// A full queue is itself the backlog being measured: keep the
			// clock running from the first attempt and retry the enqueue.
			select {
			case r.events <- probe:
				enqueued = true
			default:
			}
		}
		if el := time.Since(sentAt); el >= threshold && !reported {
			reported = true
			r.stallCount.Add(1)
			r.emit(flight.SubRuntime, flight.KLoopStall, 0, uint64(el))
		}
	}
}

// mirrorFlight periodically persists the ring to <DataDir>/flight.bin so an
// abrupt death (kill -9, OOM) still leaves a recent event prefix on disk.
// Quiet periods skip the write; a clean stop takes one final mirror.
func (r *Replica) mirrorFlight(interval time.Duration) {
	defer r.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	fr := r.flight()
	var last uint64
	for {
		select {
		case <-r.stopped:
			r.dumpFlight()
			return
		case <-tick.C:
			if h := fr.Head(); h != last {
				last = h
				r.dumpFlight()
			}
		}
	}
}

func (r *Replica) loop() {
	defer r.wg.Done()
	env := &replicaEnv{r: r}
	r.cfg.Machine.Start(env)
	for {
		select {
		case <-r.stopped:
			return
		case e := <-r.events:
			switch {
			case e.fn != nil:
				e.fn()
			case e.isTimer:
				r.cfg.Machine.OnTimer(e.timer)
			default:
				// State-transfer messages are the runtime's, not the
				// machine's: probes answer with an offer built here (the
				// machine frontier and ledger head read in the same
				// instant), serving and responses hand off to the
				// manager's goroutines.
				if r.sync != nil && r.sync.HandleMessage(e.from.Replica, e.from.IsClient, e.msg) {
					break
				}
				r.cfg.Machine.OnMessage(e.from, e.msg)
			}
		}
	}
}

// Inspect runs f on the replica's event loop and waits for it to return —
// the safe way to read machine state (machines are single-threaded by
// contract). Returns false if the replica stopped before f could run.
func (r *Replica) Inspect(f func()) bool {
	done := make(chan struct{})
	select {
	case r.events <- event{fn: func() { f(); close(done) }}:
	case <-r.stopped:
		return false
	}
	select {
	case <-done:
		return true
	case <-r.stopped:
		return false
	}
}

// Stop shuts the replica down and waits for the loop to exit.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		r.timers.Lock()
		for _, t := range r.timers.m {
			t.Stop()
		}
		r.timers.Unlock()
	})
	r.wg.Wait()
	// The state-transfer manager stops before the store closes: an
	// in-flight transfer aborts (installs are atomic, nothing partial
	// remains) and no serve request can touch a closing store.
	if r.sync != nil {
		r.sync.Stop()
	}
	// Drain the durable store BEFORE closing the transport: Close
	// completes every in-flight block's commit point and its durability
	// callback enqueues the deferred client acks onto the
	// transport's per-client queues, which the transport's Close then
	// flushes (bounded by its drain timeout).
	if r.durable != nil {
		if err := r.durable.Close(); err != nil {
			r.setDurErr(err)
		}
	}
	if r.trans != nil {
		r.trans.Close()
	}
}

// Kill shuts the replica down the way kill -9 would: the event loop stops,
// but the durable store closes abruptly — in-flight appends are
// dropped without their final fsync (and an armed torn-write failpoint
// fires), deferred client acks never flush — so only state the WAL already
// made durable survives into the next incarnation. Peers observe exactly
// what a process death looks like: sockets torn down mid-stream.
func (r *Replica) Kill() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		r.timers.Lock()
		for _, t := range r.timers.m {
			t.Stop()
		}
		r.timers.Unlock()
	})
	r.wg.Wait()
	if r.sync != nil {
		r.sync.Stop()
	}
	if r.durable != nil {
		r.durable.CloseAbrupt()
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
	// Attest the fresh checkpoint at its delivery boundary: when the machine
	// can serialize a boundary frontier, every replica checkpointing this
	// height signs identical bytes, and f+1 shares make the snapshot a
	// single-offer state-transfer target even under load. saveSnapshot runs
	// on the event loop for boundary-syncable machines only at the boundary
	// (CheckpointDue), so the frontier read here IS the boundary frontier.
	if r.sync != nil {
		if b, ok := r.cfg.Machine.(sm.BoundarySyncable); ok {
			if bsp := b.BoundarySyncPoint(); bsp != nil {
				r.sync.AttestCheckpoint(r.durable.LatestSnapshot(), bsp)
			}
		}
	}
}

// replicaEnv implements sm.Env on top of the process.
type replicaEnv struct {
	r *Replica
}

var _ sm.Env = (*replicaEnv)(nil)

func (e *replicaEnv) ID() types.ReplicaID   { return e.r.cfg.ID }
func (e *replicaEnv) Params() quorum.Params { return e.r.cfg.Params }

func (e *replicaEnv) Send(to types.ReplicaID, m types.Message) {
	if to == e.r.cfg.ID {
		// Self-delivery loops through the queue like any other message,
		// preserving the machine's sequential contract.
		e.r.DeliverReplica(to, m)
		return
	}
	if e.r.trans != nil {
		_ = e.r.trans.Send(to, m) // unreachable peers are the timeout paths' job
	}
}

func (e *replicaEnv) Broadcast(m types.Message) {
	for i := 0; i < e.r.cfg.Params.N; i++ {
		e.Send(types.ReplicaID(i), m)
	}
}

func (e *replicaEnv) SendClient(c types.ClientID, m types.Message) {
	if e.r.trans != nil {
		_ = e.r.trans.SendClient(c, m)
	}
}

// Deliver executes the decision's batch in order, journals it, and answers
// the clients. The journal append is pipelined: execution returns
// immediately and the client replies wait for the block's WAL record to be
// reported durable (per-height ack deferral), so no client ever holds an
// acknowledgement the disk does not. Without a durable store the completion
// fires inline.
func (e *replicaEnv) Deliver(d sm.Decision) {
	r := e.r
	r.mu.Lock()
	r.delivered++
	r.mu.Unlock()
	if d.Batch == nil || d.Batch.IsNoOp() {
		// No-op fillers (§III-E) keep rounds complete but carry no client
		// work: nothing to execute, journal, or answer.
		return
	}
	proof := ledger.Proof{
		Instance: d.Instance, Round: d.Round, View: d.View,
		Digest: d.Digest, Signers: d.Signers,
	}
	met := r.cfg.Metrics
	var delivAt time.Time
	if met != nil {
		delivAt = time.Now()
	}
	// With a durable store the callback runs on the WAL committer
	// goroutine; d and the completion Result are read-only there, and the
	// transports are safe for concurrent use. SendClient is enqueue-only
	// (bounded per-client queue, drop on overflow), so acking directly from
	// the committer can never wait on a client's socket — a dropped reply
	// only un-acks a durable block and the client collects its f+1 replies
	// elsewhere or retries.
	res := r.engine.ExecuteBatchAsync(d.Batch, proof, func(nres exec.Result, err error) {
		if err != nil {
			// setDurErr already ran (durableJournal); stay silent and
			// let clients collect f+1 replies from healthy replicas.
			return
		}
		if r.durable != nil && met.Tracing() {
			traceBatch(met, d.Batch, obs.PointDurable)
		}
		e.ackClients(d, nres)
		if met != nil {
			met.ObserveStage(obs.StageAck, time.Since(delivAt))
		}
	})
	r.mu.Lock()
	r.executed += uint64(res.TxnExecuted)
	r.mu.Unlock()
	if met.Tracing() {
		traceBatch(met, d.Batch, obs.PointExecute)
	}
	if r.cfg.Journaling.SnapshotEvery > 0 && res.Block != nil &&
		(res.Block.Height+1)%r.cfg.Journaling.SnapshotEvery == 0 {
		if _, ok := r.cfg.Machine.(sm.BoundarySyncable); ok {
			// Heights land mid-wave; a boundary-syncable machine drains the
			// flag at the end of the wave (CheckpointDue → PersistCheckpoint)
			// so the checkpoint lands where the frontier is deterministic.
			r.snapDue = true
		} else {
			r.saveSnapshot()
		}
	}
}

// traceBatch stamps one lifecycle point for every sampled transaction of a
// batch.
func traceBatch(met *obs.NodeMetrics, batch *types.Batch, p obs.TracePoint) {
	for i := range batch.Txns {
		tx := &batch.Txns[i]
		if !tx.IsNoOp() {
			met.Trace(uint64(tx.Client), tx.Seq, p)
		}
	}
}

// replyCacheWindow bounds the per-client reply cache, counted in batch
// replies: a retransmitted seq stays answerable while its batch is among
// the client's last replyCacheWindow decided batches.
const replyCacheWindow = 16

// replyRing holds a client's most recent batch replies.
type replyRing struct {
	buf  [replyCacheWindow]*types.ClientReply
	next int    // slot the next reply overwrites
	max  uint64 // highest seq ever cached
}

// cacheReply remembers a sent batch reply for retransmit resends, evicting
// the client's oldest cached batch reply.
func (r *Replica) cacheReply(reply *types.ClientReply) {
	r.replies.Lock()
	defer r.replies.Unlock()
	if r.replies.m == nil {
		r.replies.m = make(map[types.ClientID]*replyRing)
	}
	ring := r.replies.m[reply.Client]
	if ring == nil {
		ring = &replyRing{}
		r.replies.m[reply.Client] = ring
	}
	ring.buf[ring.next] = reply
	ring.next = (ring.next + 1) % replyCacheWindow
	ring.max = max(ring.max, slices.Max(reply.Seqs))
}

// answerRetransmits resends the cached reply of every transaction in req
// this replica already executed and answered, and returns the request of
// the rest (req itself when nothing was cached, nil when nothing is left).
// Answered transactions must not enter the event loop: the machine would
// only drop them below the dedup floor, leaving a client that lost the
// original reply stuck retransmitting forever.
func (r *Replica) answerRetransmits(req *types.ClientRequest) *types.ClientRequest {
	var rest []types.Transaction
	for i := range req.Txns {
		tx := &req.Txns[i]
		reply := r.cachedReply(tx.Client, tx.Seq)
		if reply == nil {
			if rest != nil {
				rest = append(rest, *tx)
			}
			continue
		}
		if rest == nil {
			rest = append(make([]types.Transaction, 0, len(req.Txns)), req.Txns[:i]...)
		}
		if r.trans != nil {
			_ = r.trans.SendClient(reply.Client, reply)
		}
	}
	switch {
	case rest == nil:
		return req
	case len(rest) == 0:
		return nil
	}
	return types.NewClientRequest(req.Inst, rest...)
}

// cachedReply returns a one-seq reply for (c, seq) derived from the cached
// batch reply that covered it, or nil. A seq above the highest cached one —
// every first transmission — returns in O(1); only retransmits scan.
func (r *Replica) cachedReply(c types.ClientID, seq uint64) *types.ClientReply {
	r.replies.Lock()
	defer r.replies.Unlock()
	ring := r.replies.m[c]
	if ring == nil || seq > ring.max {
		return nil
	}
	for _, cached := range ring.buf {
		if cached != nil && slices.Contains(cached.Seqs, seq) {
			return types.NewClientReply(cached.Inst, cached.Replica, c, cached.Round, cached.Result, []uint64{seq})
		}
	}
	return nil
}

// ackClients answers the clients covered by a decided, executed, durable
// batch: one reply per client, listing every seq of that client's
// non-no-op transactions in batch order (duplicates once), so a client's
// whole share of a batch costs one tag here and one verify at the client,
// and each listed seq completes on f+1 matching replies. Safe off the event
// loop — it reads only immutable decision state.
func (e *replicaEnv) ackClients(d sm.Decision, res exec.Result) {
	r := e.r
	if !r.cfg.ReplyToClients {
		return
	}
	// A durable replica whose journal failed must not acknowledge
	// transactions it can no longer persist: stay silent and let clients
	// collect their f+1 replies from healthy replicas.
	if r.DurabilityErr() != nil {
		return
	}
	type ackKey struct {
		c   types.ClientID
		seq uint64
	}
	met := r.cfg.Metrics
	sent := make(map[ackKey]struct{}, len(d.Batch.Txns))
	seqs := make(map[types.ClientID][]uint64)
	var order []types.ClientID
	for i := range d.Batch.Txns {
		tx := &d.Batch.Txns[i]
		if tx.IsNoOp() {
			continue
		}
		k := ackKey{tx.Client, tx.Seq}
		if _, dup := sent[k]; dup {
			continue
		}
		sent[k] = struct{}{}
		if _, seen := seqs[tx.Client]; !seen {
			order = append(order, tx.Client)
		}
		seqs[tx.Client] = append(seqs[tx.Client], tx.Seq)
		if met != nil {
			met.Acks.Inc()
			met.Trace(uint64(tx.Client), tx.Seq, obs.PointAck)
		}
	}
	for _, c := range order {
		reply := types.NewClientReply(d.Instance, r.cfg.ID, c, d.Round, res.ResultHash, seqs[c])
		r.cacheReply(reply)
		e.SendClient(c, reply)
	}
}

func (e *replicaEnv) SetTimer(id sm.TimerID, d time.Duration) {
	r := e.r
	r.timers.Lock()
	defer r.timers.Unlock()
	if t, ok := r.timers.m[id]; ok {
		t.Stop()
	}
	r.timers.m[id] = time.AfterFunc(d, func() {
		select {
		case r.events <- event{timer: id, isTimer: true}:
		case <-r.stopped:
		}
	})
}

func (e *replicaEnv) CancelTimer(id sm.TimerID) {
	r := e.r
	r.timers.Lock()
	defer r.timers.Unlock()
	if t, ok := r.timers.m[id]; ok {
		t.Stop()
		delete(r.timers.m, id)
	}
}

func (e *replicaEnv) Now() time.Duration { return time.Since(e.r.start) }

func (e *replicaEnv) Suspect(inst types.InstanceID, round types.Round) {
	// Standalone machines route suspicion internally; RCC replicas never
	// surface it to the runtime. Nothing to do.
}

// PersistCheckpoint implements sm.CheckpointSink: RCC's dynamic per-need
// checkpoints (§III-D) double as durable recovery points. Runs on the event
// loop (machines emit effects from their own loop), so touching the
// application is safe.
func (e *replicaEnv) PersistCheckpoint() { e.r.saveSnapshot() }

// CheckpointDue implements sm.DeferredCheckpointer: it consumes the
// cadence flag Deliver set mid-wave, so a boundary-syncable machine takes
// exactly one checkpoint per trigger, at its next delivery boundary.
func (e *replicaEnv) CheckpointDue() bool {
	due := e.r.snapDue
	e.r.snapDue = false
	return due
}

func (e *replicaEnv) Logf(format string, args ...any) { e.r.logf(format, args...) }

// RequestStateSync implements sm.StateSyncRequester: machines report gaps
// that in-protocol catch-up cannot bridge; the manager coalesces the kicks.
func (e *replicaEnv) RequestStateSync() {
	if e.r.sync != nil {
		e.r.sync.Kick()
	}
}

// ---------------------------------------------------------------------------
// Client process
// ---------------------------------------------------------------------------

// ClientProc hosts an sm.ClientMachine on goroutines and a transport.
type ClientProc struct {
	id      types.ClientID
	params  quorum.Params
	machine sm.ClientMachine
	trans   transport.Transport

	events chan event
	timers struct {
		sync.Mutex
		m map[sm.TimerID]*time.Timer
	}
	start    time.Time
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NewClient creates a client process.
func NewClient(id types.ClientID, params quorum.Params, m sm.ClientMachine) *ClientProc {
	c := &ClientProc{
		id: id, params: params, machine: m,
		events:  make(chan event, 1024),
		stopped: make(chan struct{}),
		start:   time.Now(),
	}
	c.timers.m = make(map[sm.TimerID]*time.Timer)
	return c
}

// Attach wires the transport (must precede Run).
func (c *ClientProc) Attach(t transport.Transport) { c.trans = t }

// DeliverReplica implements transport.Endpoint.
func (c *ClientProc) DeliverReplica(from types.ReplicaID, m types.Message) {
	select {
	case c.events <- event{from: sm.FromReplica(from), msg: m}:
	case <-c.stopped:
	}
}

// DeliverClient implements transport.Endpoint (unused for clients).
func (c *ClientProc) DeliverClient(types.ClientID, types.Message) {}

// Run starts the client loop. The loop handles one event plus every event
// already queued behind it, then flushes the machine, so whatever those
// events put in flight leaves as one request per destination set.
func (c *ClientProc) Run() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.machine.Start(&clientEnv{c: c})
		c.machine.Flush()
		for {
			select {
			case <-c.stopped:
				return
			case e := <-c.events:
				c.handle(e)
				for n := len(c.events); n > 0; n-- {
					c.handle(<-c.events)
				}
				c.machine.Flush()
			}
		}
	}()
}

func (c *ClientProc) handle(e event) {
	if e.isTimer {
		c.machine.OnTimer(e.timer)
	} else {
		c.machine.OnMessage(e.from.Replica, e.msg)
	}
}

// Stop shuts the client down.
func (c *ClientProc) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopped)
		c.timers.Lock()
		for _, t := range c.timers.m {
			t.Stop()
		}
		c.timers.Unlock()
	})
	c.wg.Wait()
	if c.trans != nil {
		c.trans.Close()
	}
}

type clientEnv struct{ c *ClientProc }

var _ sm.ClientEnv = (*clientEnv)(nil)

func (e *clientEnv) Client() types.ClientID { return e.c.id }
func (e *clientEnv) Params() quorum.Params  { return e.c.params }

func (e *clientEnv) Send(to types.ReplicaID, m types.Message) {
	if e.c.trans != nil {
		_ = e.c.trans.Send(to, m)
	}
}

func (e *clientEnv) Broadcast(m types.Message) {
	for i := 0; i < e.c.params.N; i++ {
		e.Send(types.ReplicaID(i), m)
	}
}

func (e *clientEnv) SetTimer(id sm.TimerID, d time.Duration) {
	c := e.c
	c.timers.Lock()
	defer c.timers.Unlock()
	if t, ok := c.timers.m[id]; ok {
		t.Stop()
	}
	c.timers.m[id] = time.AfterFunc(d, func() {
		select {
		case c.events <- event{timer: id, isTimer: true}:
		case <-c.stopped:
		}
	})
}

func (e *clientEnv) CancelTimer(id sm.TimerID) {
	c := e.c
	c.timers.Lock()
	defer c.timers.Unlock()
	if t, ok := c.timers.m[id]; ok {
		t.Stop()
		delete(c.timers.m, id)
	}
}

func (e *clientEnv) Now() time.Duration  { return time.Since(e.c.start) }
func (e *clientEnv) Logf(string, ...any) {}
