package runtime

import (
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sm"
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
	// Enabled arms the subsystem (requires Config.DataDir): the replica
	// serves its snapshots and ledger to lagging peers, and when it is
	// itself behind — wiped, corrupted, or partitioned past what
	// checkpoint catch-up bridges — it fetches the f+1-attested snapshot
	// plus ledger suffix from peers, installs it crash-atomically, and
	// rejoins consensus at the cluster head.
	Enabled bool
	// OfferWait / Retry / SteadyProbe tune the manager's probe gathering
	// window, failed-pass retry interval, and the steady-state re-probe
	// period (defaults in internal/statesync; tests shrink them).
	OfferWait   time.Duration
	Retry       time.Duration
	SteadyProbe time.Duration
}

// Config parameterizes one replica process.
type Config struct {
	// ID is the local replica.
	ID types.ReplicaID
	// Params are the deployment's quorum parameters.
	Params quorum.Params
	// Machine is the consensus machine to host: an RCC replica or a
	// standalone PBFT instance. It must implement sm.StateSyncable; New
	// refuses one that does not.
	Machine sm.Machine
	// App is the deterministic application decisions execute against.
	App exec.Application
	// DataDir enables the durable storage subsystem: the replica's ledger
	// is journaled through a write-ahead log under this directory instead
	// of kept in memory only — pipelined, so the event loop never waits
	// out an fsync and client replies for a block are deferred until its
	// record is durable — and New restores ledger height and application
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
	// ReplyToClients is accepted and ignored: a replica always answers the
	// clients of executed batches. The field remains only because
	// benchmark/cluster.go still sets it.
	ReplyToClients bool
	// Metrics is the replica's instrument catalog (shared with the
	// consensus machine). New wires it through the durable store,
	// registers the replica's own gauges plus WAL and
	// statesync counters — each labeled replica="ID" so an in-process
	// cluster can share one registry — and Attach adds the transport's.
	// Nil disables instrumentation.
	Metrics *obs.NodeMetrics
	// Logf, when set, receives runtime and state-transfer progress lines.
	Logf func(format string, args ...any)
}
