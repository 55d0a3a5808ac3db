// Command rccnode runs one replica of a consensus deployment over TCP: the
// same protocol machines, execution engine, and ledger the tests and
// benchmarks exercise, wired to real sockets.
//
// Example 4-replica RCC deployment on one machine:
//
//	for i in 0 1 2 3; do
//	  rccnode -id $i -n 4 \
//	    -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	done
//	rccclient -n 4 -peers 0=:7000,1=:7001,2=:7002,3=:7003 -txns 100
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// runTimeline is the post-mortem scrape mode: each comma-separated entry is
// either an admin address (its /debug/events ring is fetched live) or a path
// to a flight.bin dump (read from disk — the black box of a replica that is
// already gone). The rings merge into one hybrid-clock-aligned causal
// timeline with anomaly highlighting on stdout.
func runTimeline(entries string) error {
	var snaps []flight.Snapshot
	for _, raw := range strings.Split(entries, ",") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		var (
			snap flight.Snapshot
			err  error
		)
		if _, statErr := os.Stat(entry); statErr == nil {
			snap, err = flight.ReadFile(entry)
		} else {
			snap, err = flight.FetchHTTP(entry)
		}
		if err != nil {
			// A dead replica's endpoint refusing connections is the very
			// scenario this mode exists for: report and merge what we have.
			log.Printf("rccnode: timeline: skipping %s: %v", entry, err)
			continue
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) == 0 {
		return errors.New("no rings could be fetched")
	}
	tl := flight.Merge(snaps)
	flight.WriteTimeline(os.Stdout, tl, flight.DetectAnomalies(tl))
	return nil
}

func main() {
	var (
		id       = flag.Int("id", 0, "replica ID (0..n-1)")
		n        = flag.Int("n", 4, "number of replicas")
		peersArg = flag.String("peers", "", "comma-separated id=host:port peer map (including self)")
		listen   = flag.String("listen", "", "listen address (defaults to the self entry of -peers)")
		protoArg = flag.String("protocol", "rcc", "protocol: rcc, pbft")
		batch    = flag.Int("batch", 100, "transactions per proposal")
		window   = flag.Int("window", 4, "out-of-order proposal window")
		records  = flag.Int("records", ycsb.DefaultRecords, "YCSB table records")
		authArg  = flag.String("auth", "", "frame authentication scheme: none (default), mac (pairwise HMAC), ds (ED25519 dev keyring)")
		authKey  = flag.String("auth-secret", "", "shared deployment secret: MAC pair keys or the ds dev-keyring seed derive from it")
		digCache = flag.Int("digest-cache", 0, "verified client-frame digest cache entries, consulted on -auth ds links only (0 off)")
		statsSec = flag.Int("stats", 10, "stats print interval in seconds (0 off)")
		dataDir  = flag.String("data-dir", "", "durable storage directory: journal decided blocks through a WAL and resume from it on restart")
		syncMode = flag.String("sync", "group", "WAL durability with -data-dir: group (client acks wait for an fsync shared by every block in flight), none")
		snapEach = flag.Uint64("snapshot-every", 1024, "persist an application checkpoint every N blocks with -data-dir (0 off)")
		walPrune = flag.Bool("wal-prune", false, "with -data-dir and -snapshot-every: reclaim WAL segments below each persisted checkpoint; restart replays from the pinned checkpoint instead of genesis")
		stateSyn = flag.Bool("state-sync", true, "with -data-dir: serve checkpoints to lagging peers and, when this replica is behind (wiped disk, long partition), fetch the f+1-attested snapshot + ledger suffix and rejoin at the cluster head")
		adminArg = flag.String("admin-addr", "", "admin HTTP listener serving /metrics (Prometheus), /healthz, /readyz, /debug/trace, /debug/events, and /debug/pprof (empty = off)")
		traceN   = flag.Int("trace-sample", 64, "lifecycle ring: sample 1 in N transactions into the /debug/trace ring (1 = all, negative = off)")
		flightN  = flag.Int("flight-buf", 0, "flight recorder: ring capacity in events (0 = default 4096, negative = off)")
		mirrorIv = flag.Duration("flight-mirror", 0, "flight recorder: crash-safe mirror period for <data-dir>/flight.bin (0 = default 2s, negative = off)")
		timeline = flag.String("timeline", "", "scrape mode: comma-separated admin addresses and/or flight.bin paths; fetch every ring, merge into one causal cluster timeline on stdout, and exit")
	)
	flag.Parse()

	if *timeline != "" {
		if err := runTimeline(*timeline); err != nil {
			log.Fatalf("rccnode: timeline: %v", err)
		}
		return
	}

	peers, err := transport.ParsePeers(*peersArg)
	if err != nil {
		log.Fatalf("rccnode: %v", err)
	}
	if *listen == "" {
		*listen = peers[types.ReplicaID(*id)]
	}
	params, err := quorum.NewParams(*n)
	if err != nil {
		log.Fatalf("rccnode: %v", err)
	}

	// The instrument catalog exists only when the admin listener will
	// serve it: a nil *obs.NodeMetrics is the library's no-op sink, so
	// every instrumented path degrades to a nil-check.
	var metrics *obs.NodeMetrics
	if *adminArg != "" {
		metrics = obs.NewNodeMetrics(obs.NewRegistry(), 0, *traceN)
		// NewNodeMetrics installs default-size rings.
		switch {
		case *flightN < 0:
			metrics.Flight = nil
		case *flightN > 0:
			metrics.Flight = flight.New(*flightN)
		}
	}

	opts := core.Options{
		N:         *n,
		Protocol:  core.Protocol(*protoArg),
		BatchSize: *batch,
		Window:    *window,
		Metrics:   metrics,
	}
	machine, err := core.BuildMachine(&opts)
	if err != nil {
		log.Fatalf("rccnode: %v", err)
	}

	var durability wal.SyncPolicy
	switch *syncMode {
	case "group":
		durability = wal.SyncGroup
	case "none":
		durability = wal.SyncNone
	default:
		log.Fatalf("rccnode: unknown -sync mode %q (want group or none)", *syncMode)
	}

	rep, err := runtime.New(runtime.Config{
		ID:      types.ReplicaID(*id),
		Params:  params,
		Machine: machine,
		App:     ycsb.NewStore(*records),
		Journal: true,
		DataDir: *dataDir,
		Journaling: runtime.JournalOptions{
			Sync:          durability,
			SnapshotEvery: *snapEach,
			PruneWAL:      *walPrune,
		},
		StateSync:      runtime.StateSyncOptions{Enabled: *stateSyn && *dataDir != ""},
		Flight:         runtime.FlightOptions{MirrorInterval: *mirrorIv},
		ReplyToClients: true,
		Logf:           log.Printf,
		Metrics:        metrics,
	})
	if err != nil {
		log.Fatalf("rccnode: opening durable state: %v", err)
	}
	if *dataDir != "" {
		if h := rep.Ledger().Height(); h > 0 {
			log.Printf("rccnode: resumed from %s at ledger height %d (head %v, %d txns)",
				*dataDir, h, rep.Ledger().HeadHash(), rep.Ledger().TxnCount())
		} else {
			log.Printf("rccnode: fresh durable state in %s", *dataDir)
		}
	}

	auth, err := crypto.ParseAuth(*authArg, *authKey, crypto.PartyID(types.ReplicaID(*id)))
	if err != nil {
		log.Fatalf("rccnode: %v", err)
	}
	tcpCfg := transport.TCPConfig{
		Self:   types.ReplicaID(*id),
		Listen: *listen,
		Peers:  peers,
		Auth:   auth,
	}
	if *digCache > 0 {
		tcpCfg.DigestCache = digestcache.New(*digCache)
	}
	if metrics != nil {
		tcpCfg.VerifyObserve = func(d time.Duration) { metrics.ObserveStage(obs.StageVerify, d) }
		tcpCfg.Flight = metrics.Flight
	}
	tcp, err := transport.NewTCP(tcpCfg, rep)
	if err != nil {
		log.Fatalf("rccnode: %v", err)
	}
	rep.Attach(tcp)
	rep.Run()
	log.Printf("rccnode: replica %d/%d (%s) listening on %s", *id, *n, *protoArg, tcp.Addr())

	if *adminArg != "" {
		handler := obs.NewHandler(metrics, obs.Health{
			// Liveness: the sticky durability error is fatal — a replica
			// that cannot journal must be replaced, not retried.
			Healthy: rep.DurabilityErr,
			// Readiness: alive, journaling, and caught up (state transfer
			// done or disabled).
			Ready: func() error {
				if err := rep.DurabilityErr(); err != nil {
					return err
				}
				if ss := rep.StateSync(); ss != nil && !ss.Synced() {
					return errors.New("state transfer in progress: not yet verified at the cluster head")
				}
				return nil
			},
		})
		ln, err := net.Listen("tcp", *adminArg)
		if err != nil {
			log.Fatalf("rccnode: admin listener: %v", err)
		}
		go func() {
			if err := http.Serve(ln, handler); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("rccnode: admin server: %v", err)
			}
		}()
		log.Printf("rccnode: admin endpoints on http://%s (/metrics /healthz /readyz /debug/trace /debug/events /debug/pprof)", ln.Addr())
	}

	done := make(chan struct{})
	var loops sync.WaitGroup
	if *dataDir != "" {
		// Durability watchdog, independent of -stats: a replica that can
		// no longer journal must stop acknowledging transactions.
		loops.Add(1)
		go func() {
			defer loops.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := rep.DurabilityErr(); err != nil {
						log.Fatalf("rccnode: durable journal failed, stopping: %v", err)
					}
				case <-done:
					return
				}
			}
		}()
	}
	if *statsSec > 0 {
		var last uint64
		started := time.Now()
		lastAt := started
		logStats := func(final bool) {
			cur := rep.Executed()
			now := time.Now()
			dt := now.Sub(lastAt).Seconds()
			if dt <= 0 {
				dt = 1
			}
			st := tcp.Stats()
			batched := float64(0)
			if st.BatchesSent > 0 {
				batched = float64(st.MsgsSent) / float64(st.BatchesSent)
			}
			rate := float64(cur-last) / dt
			if final {
				// The lifetime summary keeps short runs from exiting silent.
				rate = float64(cur) / now.Sub(started).Seconds()
			}
			log.Printf("rccnode: executed %d txns (%.0f txn/s); sent %d msgs in %d frames (%.1f msgs/frame), dropped peer=%d client=%d, reconnects=%d",
				cur, rate,
				st.MsgsSent, st.BatchesSent, batched, st.PeerDropped, st.ClientDropped, st.Reconnects)
			last = cur
			lastAt = now
		}
		loops.Add(1)
		go func() {
			defer loops.Done()
			tick := time.NewTicker(time.Duration(*statsSec) * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					logStats(false)
				case <-done:
					logStats(true)
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(done)
	loops.Wait()
	rep.Stop()
}
