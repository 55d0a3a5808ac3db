package bench

// Messaging-layer benchmark helpers: the representative messages
// BenchmarkBroadcast and BenchmarkCodec (root bench_test.go) send.

import (
	"fmt"

	"repro/internal/types"
)

// NetVote returns a 250B-class consensus vote, the most common message on
// the wire.
func NetVote() types.Message {
	return types.NewPrepare(1, 2, 3, 4, types.Hash([]byte("vote")))
}

// NetPrePrepare returns a proposal carrying a txns-transaction batch
// (txns=100 is the paper's standard batch).
func NetPrePrepare(txns int) types.Message {
	ts := make([]types.Transaction, txns)
	for i := range ts {
		ts[i] = types.Transaction{
			Client: types.ClientID(i%16 + 1),
			Seq:    uint64(i + 1),
			Op:     fmt.Appendf(nil, "op-%04d-payload-padding-to-54-bytes-of-wire", i),
		}
	}
	b := &types.Batch{Txns: ts}
	return &types.PrePrepare{
		Header: types.Header{Inst: 1},
		View:   1, Round: 7, Digest: b.Digest(), Batch: b,
	}
}
