// YCSB: drive the paper's evaluation workload (500k-record table, 90%
// writes, Zipfian keys — §V-A) through an RCC cluster and report committed
// throughput, then compare against standalone PBFT on the same machine.
//
//	go run ./examples/ycsb
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func run(proto core.Protocol, clients, txnsPerClient int) (float64, error) {
	cluster, err := core.NewCluster(core.Options{
		N:         4,
		Protocol:  proto,
		BatchSize: 1,
		Window:    8,
	})
	if err != nil {
		return 0, err
	}
	defer cluster.Stop()
	cluster.Start()

	type result struct {
		n   int
		err error
	}
	results := make(chan result, clients)
	start := time.Now()
	for c := 1; c <= clients; c++ {
		cl := cluster.NewClient(types.ClientID(c))
		wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: int64(c)})
		go func() {
			completed := 0
			for i := 0; i < txnsPerClient; i++ {
				tx := wl.Next(cl.ID())
				if _, err := cl.Execute(tx.Op, 20*time.Second); err != nil {
					results <- result{completed, err}
					return
				}
				completed++
			}
			results <- result{completed, nil}
		}()
	}
	total := 0
	for i := 0; i < clients; i++ {
		r := <-results
		total += r.n
		if r.err != nil {
			return 0, r.err
		}
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

func main() {
	const clients, txns = 8, 25
	fmt.Printf("YCSB workload: %d clients × %d transactions, 90%% writes, Zipfian keys\n\n", clients, txns)
	for _, proto := range []core.Protocol{core.RCC, core.PBFT} {
		tput, err := run(proto, clients, txns)
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		fmt.Printf("%-6s %8.0f txn/s committed\n", proto, tput)
	}
	fmt.Println("\n(In-process deployment: absolute numbers reflect this machine;")
	fmt.Println(" REPRODUCTION.md lists which of the paper's comparisons this")
	fmt.Println(" repository reproduces, and how.)")
}
