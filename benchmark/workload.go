package main

import (
	"fmt"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// warmup is discarded before every measured window: connections dial,
// batches start filling, the Go heap reaches its working size.
const warmup = 3 * time.Second

// failAfter is the completion deadline counted from a request's due (open
// loop) or send (closed loop) time; the drain after the window lasts as long.
const failAfter = 5 * time.Second

// spec is one named workload. Every field is an input property the system's
// behaviour depends on; nothing in the program can observe which spec runs.
type spec struct {
	name string
	why  string

	// rate > 0 makes the workload an open loop at that many txn/s across all
	// clients; 0 makes it a closed loop that keeps window requests per client
	// outstanding.
	rate   int
	window int // client.SetWindow; 0 = unbounded (open loops only)

	scheme   crypto.Scheme
	wan      bool // replica links delayed by simnet.WANLatencyMatrix
	progress time.Duration
	retry    time.Duration

	// clients are the client identities; rcc assigns client c to instance
	// c mod m, so {1,2,3,4} loads all four instances.
	clients []types.ClientID
	// kill, when >= 0, is the replica killed a third of the way into the
	// window.
	kill int
}

var allClients = []types.ClientID{1, 2, 3, 4}

var specs = []spec{
	{
		name: "lan_sat", window: 256, scheme: crypto.SchemeMAC, clients: allClients, kill: -1,
		progress: 2 * time.Second, retry: 2 * time.Second,
		why: "closed loop, 1024 outstanding, MAC, no delay: CPU-bound, so a per-txn CPU saving in any layer shows as txn_per_s",
	},
	{
		name: "lan_open", rate: 20000, scheme: crypto.SchemeMAC, clients: allClients, kill: -1,
		progress: 2 * time.Second, retry: 2 * time.Second,
		why: "open loop at 20000 txn/s, about 30% of saturation: latency at normal load, where batch-fill wait dominates, not CPU",
	},
	{
		name: "wan_geo", window: 1024, scheme: crypto.SchemeMAC, wan: true, clients: allClients, kill: -1,
		progress: 2 * time.Second, retry: 2 * time.Second,
		why: "closed loop under 32-105 ms one-way replica delays: delay-bound, the bypass workload for every CPU optimisation",
	},
	{
		name: "lan_ds", window: 256, scheme: crypto.SchemeDS, clients: allClients, kill: -1,
		progress: 2 * time.Second, retry: 2 * time.Second,
		why: "lan_sat with ED25519 signatures on every link: crypto does almost all the work",
	},
	{
		// Clients 2,3,4 are served by instances 2,3,0; instance 1 carries only
		// no-op fills, so killing its primary stalls wave unification (paper
		// Fig. 10) without orphaning a client. client.Client never sends
		// SWITCH-INSTANCE, so a client of the dead primary would fail every
		// request for the rest of the run.
		name: "lan_fault", rate: 15000, window: 256, scheme: crypto.SchemeMAC, clients: allClients[1:], kill: 1,
		progress: 500 * time.Millisecond, retry: 500 * time.Millisecond,
		why: "open loop at 15000 txn/s; the primary of instance 1 is killed a third into the window and the schedule does not pause",
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// clientSeed derives one client's generator seed from the run seed. The seed
// feeds the transaction generators and the trace sampler and nothing else.
func clientSeed(seed int64, c types.ClientID) int64 { return seed*1_000_003 + int64(c) }
