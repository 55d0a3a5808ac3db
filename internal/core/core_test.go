package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/exec"
	"repro/internal/rcc"
	"repro/internal/ycsb"
)

func TestQuickstartRCC(t *testing.T) {
	cluster, err := NewCluster(Options{N: 4, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	cl := cluster.NewClient(0)
	for i := 0; i < 3; i++ {
		comp, err := cl.Execute(ycsb.EncodeWrite(uint32(i), []byte("v")), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Seq != uint64(i+1) {
			t.Fatalf("completion seq %d, want %d", comp.Seq, i+1)
		}
	}
	// The journal of every replica must hold the executed batches and
	// verify as an intact hash chain.
	waitFor(t, 5*time.Second, func() bool {
		return cluster.Ledger(0).TxnCount() >= 3
	})
	for i := 0; i < 4; i++ {
		if err := cluster.Ledger(i).Verify(); err != nil {
			t.Fatalf("replica %d ledger: %v", i, err)
		}
	}
}

// Every protocol executes a transaction.
func TestAllProtocolsExecuteTransactions(t *testing.T) {
	for _, proto := range []Protocol{RCC, PBFT} {
		t.Run(string(proto), func(t *testing.T) {
			cluster, err := NewCluster(Options{N: 4, Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			cluster.Start()
			cl := cluster.NewClient(0)
			if _, err := cl.Execute(ycsb.EncodeWrite(7, []byte("x")), 10*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRCCSurvivesCrash(t *testing.T) {
	cluster, err := NewCluster(Options{N: 4, ProgressTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	// Client 4 maps to instance 0 (4 mod 4), whose primary stays healthy;
	// clients of the crashed instance would need §III-E SwitchInstance.
	cl := cluster.NewClient(4)
	if _, err := cl.Execute(ycsb.EncodeWrite(1, []byte("a")), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(1)
	// Transactions routed to healthy instances keep completing; the
	// crashed primary's instance recovers wait-free in the background.
	for i := 0; i < 3; i++ {
		if _, err := cl.Execute(ycsb.EncodeWrite(uint32(10+i), []byte("b")), 15*time.Second); err != nil {
			t.Fatalf("txn %d after crash: %v", i, err)
		}
	}
	// Eventually a stop must be accepted for the crashed instance. State
	// reads go through Inspect: machines are single-threaded by contract.
	waitFor(t, 15*time.Second, func() bool {
		rep, ok := cluster.Machine(0).(*rcc.Replica)
		if !ok {
			return false
		}
		stops := 0
		cluster.Replica(0).Inspect(func() { stops = rep.Status(1).Stops })
		return stops > 0
	})
}

func TestBankApplication(t *testing.T) {
	opening := map[string]int64{"Alice": 800, "Bob": 300, "Eve": 100}
	cluster, err := NewCluster(Options{
		N:   4,
		App: func() exec.Application { return bank.New(opening) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	cl := cluster.NewClient(0)
	t1 := bank.Transfer{From: "Alice", To: "Bob", Threshold: 500, Amount: 200}
	if _, err := cl.Execute(t1.Encode(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := NewCluster(Options{N: 3}); err == nil {
		t.Fatal("accepted n=3 (< 4)")
	}
	// The last two named RCC over Zyzzyva and SBFT instances, which this
	// build no longer has.
	for _, proto := range []Protocol{"bogus", "rcc-z", "rcc-s"} {
		if _, err := NewCluster(Options{N: 4, Protocol: proto}); err == nil {
			t.Fatalf("accepted unknown protocol %q", proto)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	cluster, err := NewCluster(Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := cluster.NewClient(0)
		go func(cl *Client) {
			for j := 0; j < 3; j++ {
				if _, err := cl.Execute(ycsb.EncodeWrite(uint32(j), []byte(fmt.Sprint(cl.ID()))), 15*time.Second); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(cl)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}
