// Quickstart: a four-replica RCC cluster executing YCSB transactions with a
// journalled blockchain ledger, all in one process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/ycsb"
)

func main() {
	// Assemble n=4 replicas running RCC over PBFT (the paper's RCC-P):
	// every replica is the primary of one concurrent consensus instance.
	cluster, err := core.NewCluster(core.Options{
		N:        4,
		Protocol: core.RCC,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	// Connect a client and execute a handful of YCSB writes. Each Execute
	// blocks until f+1 replicas report the identical outcome.
	cl := cluster.NewClient(0)
	for i := 0; i < 5; i++ {
		comp, err := cl.Execute(ycsb.EncodeWrite(uint32(i), []byte(fmt.Sprintf("value-%d", i))), 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("txn %d committed in %v (result %v)\n", comp.Seq, comp.Latency.Round(time.Millisecond), comp.Result)
	}

	// Wait for the journal to absorb the batches, then audit the chain.
	time.Sleep(200 * time.Millisecond)
	ledger := cluster.Ledger(0)
	if err := ledger.Verify(); err != nil {
		log.Fatalf("ledger verification failed: %v", err)
	}
	fmt.Printf("\nledger: %d blocks, %d transactions, hash chain intact\n", ledger.Height(), ledger.TxnCount())
	if head := ledger.Head(); head != nil {
		fmt.Printf("head block %d: hash %v, decided by instance %d round %d\n",
			head.Height, head.Hash(), head.Proof.Instance, head.Proof.Round)
	}
}
