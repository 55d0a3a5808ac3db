package zyzzyva

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// batchTimeout is a deadline from the primary's last proposal: a steady
// trickle that never fills a batch is still proposed batchTimeout after
// start. The old idle timer, re-armed on every arrival, never fired, and
// the first batch waited for the 100th transaction.
func TestTrickleProposedAtBatchTimeout(t *testing.T) {
	var first time.Duration
	var net *simnet.Network
	net, _ = cluster(t, 4, Config{BatchSize: 100, Window: 8}, simnet.Config{Drop: func(from, to types.ReplicaID, m types.Message) bool {
		if _, ok := m.(*types.OrderRequest); ok && from == 0 && to == 1 && first == 0 {
			first = net.Now()
		}
		return false
	}})
	net.Start()
	for i := 0; i < 200; i++ {
		req := types.NewClientRequest(0, types.Transaction{Client: 1, Seq: uint64(i + 1), Op: []byte{byte(i)}})
		for r := 0; r < 4; r++ {
			node := net.Node(types.ReplicaID(r))
			net.Schedule(time.Duration(i)*time.Millisecond, func() { node.Machine().OnMessage(sm.FromClient(1), req) })
		}
	}
	net.Run(time.Second)
	if first == 0 || first > 50*time.Millisecond {
		t.Fatalf("first proposal at %v, want within the 50 ms batchTimeout", first)
	}
}
