package runtime

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// TestWatchdogDetectsWedgedLoop deliberately wedges the consensus event loop
// (a long-running Inspect closure) and asserts the two observability paths
// agree about it: a loop_stalled flight event lands in the ring, and
// rcc_loop_stalls_total increments in the registry. Run under -race this
// also pins the watchdog/loop/recorder interaction as data-race-free.
func TestWatchdogDetectsWedgedLoop(t *testing.T) {
	params, err := quorum.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 64)
	r, err := New(Config{
		ID:      2,
		Params:  params,
		Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4, ProgressTimeout: time.Minute}),
		App:     ycsb.NewStore(100),
		Flight:  FlightOptions{stallThreshold: 40 * time.Millisecond},
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer r.Stop()

	// Wedge the loop: Inspect runs its closure ON the event loop, so this
	// sleep stops all event servicing — exactly the condition the watchdog
	// exists to catch — for ~10x the threshold.
	if !r.Inspect(func() { time.Sleep(400 * time.Millisecond) }) {
		t.Fatal("replica stopped before the wedge could run")
	}

	waitFor(t, 5*time.Second, func() bool { return r.stallCount.Load() >= 1 })

	snap := met.Flight.Dump(0)
	var stall *flight.Event
	for i := range snap.Events {
		e := snap.Events[i]
		if e.Kind == flight.KLoopStall && e.Sub == flight.SubRuntime && e.Replica == 2 {
			stall = &snap.Events[i]
		}
	}
	if stall == nil {
		t.Fatalf("no loop_stalled event in the ring (%d events)", len(snap.Events))
	}
	if got := time.Duration(stall.Detail); got < 40*time.Millisecond {
		t.Fatalf("loop_stalled reports %v, want >= the 40ms threshold", got)
	}

	var buf strings.Builder
	met.Registry().WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `rcc_loop_stalls_total{replica="2"}`) {
		t.Fatalf("rcc_loop_stalls_total missing from /metrics:\n%s", grepLines(buf.String(), "loop_stalls"))
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `rcc_loop_stalls_total{replica="2"} `) {
			if strings.TrimPrefix(line, `rcc_loop_stalls_total{replica="2"} `) == "0" {
				t.Fatalf("counter did not increment: %s", line)
			}
		}
	}
}

// flightReplica boots one durable, state-sync- and flight-enabled replica
// with its own metrics catalog (so every incarnation has its own ring and
// registry, like a real process).
func flightReplica(t *testing.T, base string, id types.ReplicaID, params quorum.Params,
	listen string, peers map[types.ReplicaID]string) (*Replica, *transport.TCP, *obs.NodeMetrics) {
	t.Helper()
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 64)
	rep, err := New(Config{
		ID:     id,
		Params: params,
		Machine: pbft.New(pbft.Config{
			BatchSize: 1, Window: 8,
			// Keep view changes out of the incident: the demotion /
			// reconnect / state-transfer chain is what is under test.
			ProgressTimeout: 20 * time.Second,
			Metrics:         met,
		}),
		App:            ycsb.NewStore(1000),
		DataDir:        filepath.Join(base, fmt.Sprintf("replica-%d", id)),
		ReplyToClients: true,
		StateSync: StateSyncOptions{
			Enabled:     true,
			OfferWait:   150 * time.Millisecond,
			Retry:       300 * time.Millisecond,
			SteadyProbe: 500 * time.Millisecond,
		},
		Flight:  FlightOptions{MirrorInterval: 100 * time.Millisecond},
		Metrics: met,
	})
	if err != nil {
		t.Fatalf("replica %d: %v", id, err)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		Self: id, Listen: listen, Flight: met.Flight,
	}, rep)
	if err != nil {
		t.Fatalf("replica %d transport: %v", id, err)
	}
	if peers != nil {
		tcp.SetPeers(peers)
	}
	rep.Attach(tcp)
	return rep, tcp, met
}

// adminAddr serves a replica's admin endpoints over real HTTP and returns
// the host:port flight.FetchHTTP wants.
func adminAddr(t *testing.T, met *obs.NodeMetrics) string {
	t.Helper()
	srv := httptest.NewServer(obs.NewHandler(met, obs.Health{}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// preserveFlightDumps copies every flight.bin under base into $FLIGHT_DUMP_DIR
// when the test fails, so CI can upload the black boxes of a failed run as
// artifacts before t.TempDir's cleanup destroys them. No-op when the
// variable is unset (local runs). Register it right after t.TempDir so the
// LIFO cleanup order runs the copy before the removal.
func preserveFlightDumps(t *testing.T, base string) {
	t.Helper()
	dir := os.Getenv("FLIGHT_DUMP_DIR")
	if dir == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("preserving flight dumps: %v", err)
			return
		}
		filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || info.Name() != flight.FileName {
				return err
			}
			rel := strings.TrimPrefix(path, base+string(os.PathSeparator))
			out := filepath.Join(dir, t.Name()+"-"+strings.ReplaceAll(rel, string(os.PathSeparator), "-"))
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Logf("preserving %s: %v", path, rerr)
				return nil
			}
			if werr := os.WriteFile(out, data, 0o644); werr != nil {
				t.Logf("preserving %s: %v", path, werr)
				return nil
			}
			t.Logf("preserved flight dump %s", out)
			return nil
		})
	})
}

// TestFlightIncidentTimelineOverTCP is the acceptance test for the flight
// recorder as a whole: a 4-node TCP cluster takes load, one replica dies
// abruptly mid-deployment (its peers demote the dead link), the cluster
// decides on without it, the replica restarts behind and heals through state
// transfer. The merged timeline — scraped from all four live /debug/events
// endpoints plus the dead incarnation's crash-persisted flight.bin — must
// reconstruct the incident in causal order: demotion, reconnect, the
// statesync phase ladder, and the synced rejoin.
func TestFlightIncidentTimelineOverTCP(t *testing.T) {
	base := t.TempDir()
	preserveFlightDumps(t, base)
	const n = 4
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	tcps := make([]*transport.TCP, n)
	mets := make([]*obs.NodeMetrics, n)
	peers := make(map[types.ReplicaID]string)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		reps[i], tcps[i], mets[i] = flightReplica(t, base, id, params, "127.0.0.1:0", nil)
		peers[id] = tcps[i].Addr()
	}
	for i := 0; i < n; i++ {
		tcps[i].SetPeers(peers)
		reps[i].Run()
	}
	t.Cleanup(func() {
		for _, r := range reps[:3] {
			r.Stop()
		}
	})

	c := tcpClient(t, peers, params, 1, "", 6)
	waitFor(t, 30*time.Second, func() bool { return len(c.Completions()) == 6 })
	for _, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Ledger().Height() == 6 })
	}

	// Kill replica 3: Stop closes its sockets under its peers' feet — their
	// next write to the link fails and demotes it. The flight.bin mirror in
	// its data dir is the only record its first incarnation leaves behind.
	incidentStart := time.Now()
	reps[3].Stop()
	deadDump := filepath.Join(base, "replica-3", flight.FileName)
	deadSnap, err := flight.ReadFile(deadDump)
	if err != nil {
		t.Fatalf("dead replica left no flight.bin: %v", err)
	}
	if len(deadSnap.Events) == 0 {
		t.Fatal("dead replica's flight.bin is empty")
	}

	// Load while the replica is down forces peer writes to the dead link
	// (demotions) and moves the head it will have to catch up to.
	c2 := tcpClient(t, peers, params, 2, "", 8)
	waitFor(t, 30*time.Second, func() bool { return len(c2.Completions()) == 8 })

	// Restart at the same address: peers redial (reconnect events), the
	// replica finds itself behind and heals through the statesync ladder.
	rep3, _, met3 := flightReplica(t, base, 3, params, peers[3], peers)
	rep3.Run()
	t.Cleanup(rep3.Stop)
	waitFor(t, 30*time.Second, func() bool {
		return rep3.Ledger().Height() == 14 && rep3.StateSync().Synced()
	})
	if rep3.Ledger().HeadHash() != reps[0].Ledger().HeadHash() {
		t.Fatal("restarted replica diverged after catch-up")
	}

	// Scrape all four live rings over real HTTP, exactly as the rccnode
	// -timeline mode does, and merge them with the dead incarnation's dump.
	snaps := []flight.Snapshot{deadSnap}
	for _, met := range []*obs.NodeMetrics{mets[0], mets[1], mets[2], met3} {
		snap, err := flight.FetchHTTP(adminAddr(t, met))
		if err != nil {
			t.Fatalf("scraping /debug/events: %v", err)
		}
		if len(snap.Events) == 0 {
			t.Fatal("a live replica's /debug/events ring is empty")
		}
		snaps = append(snaps, snap)
	}
	tl := flight.Merge(snaps)

	// Reconstruct the incident: find the causal chain on the merged
	// timeline, constrained to events after the kill.
	idxDemote, idxReconnect := -1, -1
	idxBehind, idxSynced := -1, -1
	for i, ev := range tl {
		if ev.Wall.Before(incidentStart) {
			continue
		}
		switch {
		case ev.Kind == flight.KDemote && ev.Replica != 3 && idxDemote < 0:
			idxDemote = i
		case ev.Kind == flight.KReconnect && ev.Replica != 3 && idxReconnect < 0:
			idxReconnect = i
		case ev.Kind == flight.KSyncPhase && ev.Replica == 3:
			switch flight.Phase(ev.Detail) {
			case flight.PhaseBehind:
				if idxBehind < 0 {
					idxBehind = i
				}
			case flight.PhaseSynced:
				idxSynced = i
			}
		}
	}
	if idxDemote < 0 {
		t.Fatal("timeline missing the peers' demotion of the dead link")
	}
	if idxReconnect < 0 {
		t.Fatal("timeline missing the peers' reconnect after restart")
	}
	if idxBehind < 0 || idxSynced < 0 {
		t.Fatalf("timeline missing the statesync ladder (behind=%d synced=%d)", idxBehind, idxSynced)
	}
	if !(idxDemote < idxReconnect) {
		t.Fatalf("demotion (%d) must precede reconnect (%d)", idxDemote, idxReconnect)
	}
	if !(idxDemote < idxBehind && idxBehind < idxSynced) {
		t.Fatalf("incident out of causal order: demote=%d behind=%d synced=%d", idxDemote, idxBehind, idxSynced)
	}
}
