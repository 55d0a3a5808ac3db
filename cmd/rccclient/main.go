// Command rccclient drives a TCP deployment of rccnode replicas with a YCSB
// workload and reports throughput and latency.
//
//	rccclient -n 4 -peers 0=:7000,1=:7001,2=:7002,3=:7003 -txns 1000
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func main() {
	var (
		id       = flag.Uint("id", 1, "client ID (>= 1)")
		n        = flag.Int("n", 4, "number of replicas")
		peersArg = flag.String("peers", "", "comma-separated id=host:port replica map")
		txns     = flag.Int("txns", 100, "transactions to execute")
		window   = flag.Int("window", 8, "client pipeline depth")
		authArg  = flag.String("auth", "", "frame authentication scheme: none (default), mac, ds (must match the nodes)")
		authKey  = flag.String("auth-secret", "", "shared deployment secret (must match the nodes)")
		timeout  = flag.Duration("timeout", 60*time.Second, "overall deadline")
	)
	flag.Parse()

	peers, err := transport.ParsePeers(*peersArg)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	params, err := quorum.NewParams(*n)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}

	cid := types.ClientID(*id)
	mach := client.New(client.Config{
		Client:       cid,
		Broadcast:    true,
		RetryTimeout: 2 * time.Second,
	})
	mach.SetWindow(*window)

	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: int64(*id)})
	for i := 0; i < *txns; i++ {
		mach.Submit(wl.Next(cid))
	}
	// The hook is the client's only completion record (it keeps no list
	// beside one), so the latencies are collected here.
	done := make(chan struct{}, 1)
	lats := make([]time.Duration, 0, *txns)
	mach.SetCompletionHook(func(comp client.Completion) {
		lats = append(lats, comp.Latency)
		if len(lats) == *txns {
			done <- struct{}{}
		}
	})

	proc := runtime.NewClient(cid, params, mach)
	auth, err := crypto.ParseAuth(*authArg, *authKey, crypto.ClientPartyID(cid))
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		IsClient:   true,
		SelfClient: cid,
		Peers:      peers,
		Auth:       auth,
	}, proc)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	proc.Attach(tcp)

	start := time.Now()
	proc.Run()
	select {
	case <-done:
	case <-time.After(*timeout):
		log.Fatalf("rccclient: deadline exceeded with %d/%d complete", len(lats), *txns)
	}
	elapsed := time.Since(start)
	proc.Stop()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 time.Duration
	if len(lats) > 0 {
		p50 = lats[len(lats)/2]
		p99 = lats[len(lats)*99/100]
	}
	fmt.Printf("completed %d txns in %v: %.0f txn/s, p50 %v, p99 %v, retries %d\n",
		len(lats), elapsed.Round(time.Millisecond),
		float64(len(lats))/elapsed.Seconds(), p50, p99, mach.Retries())
}
