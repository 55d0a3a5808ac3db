// Package repro is a from-scratch Go reproduction of "RCC: Resilient
// Concurrent Consensus for High-Throughput Secure Transaction Processing"
// (Gupta, Hellings, Sadoghi — ICDE 2021).
//
// The public API lives in internal/core (cluster assembly), the paradigm in
// internal/rcc, its instance protocol (and coordinating consensus) in
// internal/pbft, and the experiments that drive these state machines in
// internal/bench plus cmd/rccbench. REPRODUCTION.md lists each paper claim
// with its status, number and command. See README.md for the package tour,
// the subsystem overviews, and how to run rccnode/rccclient/rccbench.
//
// Durable storage: replicas configured with a data directory
// (runtime.Config.DataDir, core.Options.DataDir, rccnode -data-dir)
// journal every decided block through a segmented, CRC-checked
// write-ahead log (internal/wal) and persist execution-state
// checkpoints (internal/store) — RCC's dynamic per-need checkpoints
// (§III-D) double as the durable recovery points. A restarted replica
// replays the log (truncating a torn tail, refusing corruption), restores
// the application from the latest checkpoint, and resumes at its pre-crash
// ledger height with an identical head hash — its own disk suffices. See
// internal/wal's package documentation for the on-disk format and
// examples/recovery for a kill-and-restart walkthrough. Data dirs are
// stamped with a replica identity and format version on first open and
// refuse to serve a different replica or a newer format.
//
// Pipelined durability: the fsync never runs on the consensus event loop.
// Executed blocks are handed to a background committer over a bounded
// in-flight queue (wal.DefaultQueueDepth blocks), many blocks share each commit point,
// and the client replies for a block wait for its WAL record to be
// reported durable — under the default policy an acknowledged transaction
// survives any crash (with -sync none the commit point is flush-only:
// process-crash-safe, not power-loss-safe), and no block pays an fsync
// stall of its own (BenchmarkAsyncJournal; records/fsync shows the
// amortization). When the queue fills, execution back-pressures; shutdown
// and checkpoints drain it so snapshots never outrun the journal. See
// internal/wal's package documentation for the pipeline design.
//
// Non-blocking messaging layer: no network I/O or encoding ever runs on
// the consensus event loop. Send and SendClient on every transport
// (internal/transport) are enqueue-only — bounded per-destination queues
// feed dedicated writer goroutines that encode messages through the
// registry-based binary codec in internal/types (explicit MsgType tag,
// per-type Marshal/Unmarshal, pooled buffers; replaces per-message gob),
// coalesce bursts into multi-message frames (wire format v13, one write
// syscall and one authenticator tag per burst: on MAC links an AES-256-GCM
// tag under a per-stream key with the frame's index as nonce, on DS links
// an ED25519 signature over a domain-separated digest of the frame's
// records, one for all the peers whose frames repeat the same bytes), and
// redial failed peers with exponential backoff.
// Replica links backpressure on overflow while the peer is healthy and
// drop (counted) while it is down; client links always drop on overflow,
// so one stalled client or peer can never delay anyone else — client
// acks ride these per-client queues straight off the WAL committer.
// Connections open with a wire-version handshake and refuse mismatched
// peers, the network twin of store.ErrDataDirMismatch. Queue depths and
// batch caps are constants of internal/transport, not flags;
// BenchmarkBroadcast and BenchmarkCodec price the path and CI holds both
// to their baseline rows.
//
// State-transfer subsystem: a replica whose disk no longer reaches the
// cluster — wiped, corrupted, or partitioned past what in-protocol
// checkpoint catch-up (§III-C/§III-D) can bridge — heals itself through
// internal/statesync (rccnode -state-sync, on by default with -data-dir).
// It probes its peers and trusts only what f+1 distinct replicas offer
// byte-identically: a live head (snapshot digests, ledger head, and the
// consensus machine's serialized frontier, sm.StateSyncable), or, when
// load keeps live heads apart, a checkpoint (snapshot digests and the
// frontier at the snapshot's delivery boundary, sm.BoundarySyncable). It
// fetches the snapshot in bounded 256 KiB chunks plus the ledger suffix in
// block ranges, and verifies everything against those digests: reassembled
// chunks must hash to the vouched-for state digest, blocks must chain
// hash-to-hash from the snapshot anchor to the vouched-for head, proofs
// must cover their batches. The install is crash-atomic
// (staging + commit marker): a kill -9 at any point leaves either the
// pre-transfer state or the fully installed one, never a mix. Installing
// rebases the WAL to the snapshot height (records below it live on only
// inside the pinned base checkpoint) and hands the machine the vouched-for
// frontier, so the replica votes at that height immediately —
// including decisions it accumulated while the transfer ran. Acked⇒durable
// is preserved across a transfer: a syncing replica defers no acks (it is
// not executing), and after the install its journal again covers exactly
// the chain it acknowledges. The TestStateSync*OverTCP tests in
// internal/runtime drive the whole transfer over real sockets.
//
// In-order execution: exec.Apply, which the replica runtime calls for each
// decision, applies each unified round after unification, in the one
// deterministic order every replica agrees on (§III), one transaction at a
// time. ResultHash is one
// SHA-256 over every result in batch order, each as a u32 length and its
// bytes (since wire v8), so it depends only on the batch and its results and
// costs one hash per batch; TestGoldenResultHashes pins it.
// BenchmarkExec measures the executor's txn/s on YCSB and on the bank.
//
// Frame authentication at line rate: internal/crypto implements the
// paper's Fig. 7-right schemes as production hot paths. NewMAC precomputes
// pairwise HMAC keys and pools HMAC state (Tag+Verify is one pool hit, one
// allocation; BenchmarkAuth is regression-gated); the transport derives a
// stream key per connection direction through it and tags MAC-link frames
// with AES-256-GCM, an AES-based MAC like the paper's CMAC-AES. NewDSDev derives a
// deterministic ED25519 dev keyring from one shared secret, so
// rccnode/rccclient key a whole cluster with -auth none|mac|ds plus
// -auth-secret (production keys plug into NewDS/KeyRing). One tag per
// frame covers the exact bytes of all its records and is checked before
// any record is decoded, so no decoded field escapes authentication and a
// forged frame is dropped whole.
// Each link's reader in internal/transport checks and then decodes its own
// frames, so links verify in parallel and each delivers in order; a
// sharded cache of verified DS client frames (-digest-cache,
// internal/crypto/digestcache) skips re-verifying a byte-identical
// retransmission, and links exceeding consecutive bad frames are demoted
// (reconnect, counted). The verify stage reports into
// rcc_stage_latency_seconds{stage="verify"}; the benchmark/ module's lan_sat
// (MAC) and lan_ds (ED25519) workloads measure the live cost of each
// scheme, BenchmarkAuth its Tag+Verify, and TestAuthDSOverTCP pins
// byte-identical StateDigests across a signed cluster's replicas. See the
// README's "Authentication" section.
//
// Observability: internal/obs instruments the full request path —
// per-stage latency histograms (verify, batch, consensus, unify, execute,
// journal, ack), consensus/WAL/transport/statesync counters, Go runtime
// self-metrics, and deterministic 1-in-N transaction lifecycle stamps
// (flight events in a ring of their own) — behind a dependency-free,
// allocation-free metrics registry whose overhead CI gates at ≤5% of the
// instrumented hot paths. rccnode -admin-addr serves /metrics (Prometheus
// text format), /healthz (flips on the sticky durability error), /readyz
// (journaling and caught up), /debug/trace and /debug/events (one handler
// over the lifecycle and protocol-event rings), and /debug/pprof. See
// internal/obs and the README's "Observability" section;
// scripts/admin_smoke.sh asserts every stage histogram fills on a live TCP
// cluster, and the benchmark/ module's traced runs break client-observed
// latency down per layer.
//
// Flight recorder: internal/obs/flight is the black box behind
// /debug/events — a lock-free bounded ring of fixed-shape protocol events
// (view changes, suspects, checkpoint adoptions, instance decisions, wave
// unifications, voids, recovery kicks, connect/reconnect/demotions,
// fsync stalls, the sticky durability poison, snapshot commits, statesync
// phase transitions and offer rejections with causes, and loop_stalled
// from the event-loop watchdog). Dumps are cursor-based (?since=, text or
// binary), mirror crash-safely to <data-dir>/flight.bin (-flight-mirror,
// plus immediately on durability poison), and merge across replicas into
// one causally ordered cluster timeline with anomaly highlighting:
// rccnode -timeline <admin-addr|flight.bin>[,...]. rccbench -exp timeline
// rehearses the workflow in-process; see the README's "Flight recorder &
// cluster timeline" section for the event catalog, the cursor contract,
// and a worked stuck-wave diagnosis.
//
// The root-level benchmarks (bench_test.go) time Fig. 6 and Fig. 10 on the
// real state machines and the program's hot paths:
//
//	go test -bench=. -benchmem .
//
// CI runs them (benchtime=1x smoke plus a longer WAL/journal/messaging/
// observability/execution pass), emits BENCH_ci.json, and gates merges on
// >25% ns/op regressions against the committed BENCH_baseline.json via
// scripts/benchgate, which also enforces the observability overhead
// ceiling (-max-overhead).
package repro
