package statesync

import (
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/types"
)

// mkChain builds a ledger with n single-transaction blocks and returns it.
func mkChain(n int, seed byte) *ledger.Ledger {
	lg := ledger.New()
	for i := 0; i < n; i++ {
		batch := &types.Batch{Txns: []types.Transaction{{
			Client: 1, Seq: uint64(i + 1), Op: []byte{seed, byte(i)},
		}}}
		proof := ledger.Proof{Round: types.Round(i + 1), Digest: batch.Digest()}
		lg.Append(batch, proof, types.Hash([]byte{seed, byte(i), 0xEE}))
	}
	return lg
}

func encodeRange(lg *ledger.Ledger, from, to uint64) [][]byte {
	var out [][]byte
	for h := from; h < to; h++ {
		out = append(out, ledger.EncodeBlock(lg.Get(h)))
	}
	return out
}

// newFetcher builds a Manager whose Send is answered synchronously by
// respond (per-destination): the reply, if any, is injected back through
// HandleMessage exactly as the event loop would.
func newFetcher(t *testing.T, attest int, respond func(to types.ReplicaID, m types.Message) types.Message) *Manager {
	t.Helper()
	var m *Manager
	m = New(Config{
		Self: 3, N: 4, Attest: attest,
		requestTimeout: 50 * time.Millisecond,
		OfferWait:      30 * time.Millisecond,
	}, Host{
		Send: func(to types.ReplicaID, msg types.Message) {
			if reply := respond(to, msg); reply != nil {
				m.HandleMessage(to, false, reply)
			}
		},
		Ledger: func() *ledger.Ledger { return ledger.New() },
	})
	return m
}

// snapServer answers chunk requests for state, optionally corrupting them.
func snapServer(self types.ReplicaID, state []byte, chunkBytes uint64, corrupt func(chunk uint64, data []byte) []byte) func(m types.Message) types.Message {
	return func(m types.Message) types.Message {
		req, ok := m.(*types.SnapshotRequest)
		if !ok || req.IsProbe() {
			return nil
		}
		total := chunkCount(uint64(len(state)), chunkBytes)
		off := uint64(req.Chunk) * chunkBytes
		end := min(off+chunkBytes, uint64(len(state)))
		data := append([]byte(nil), state[off:end]...)
		if corrupt != nil {
			data = corrupt(uint64(req.Chunk), data)
		}
		return &types.SnapshotChunk{Replica: self, Height: req.Height, Chunk: req.Chunk, Of: uint32(total), Data: data}
	}
}

func snapOffer(state []byte, chunkBytes uint64) *types.StateOffer {
	return &types.StateOffer{
		SnapHeight:  8,
		SnapSize:    uint64(len(state)),
		ChunkBytes:  uint32(chunkBytes),
		SnapAppHash: types.Hash(state),
	}
}

func TestFetchSnapshotRefusesTruncatedChunk(t *testing.T) {
	state := make([]byte, 2500)
	for i := range state {
		state[i] = byte(i * 7)
	}
	const cb = 1024
	honest := snapServer(1, state, cb, nil)
	truncating := snapServer(0, state, cb, func(chunk uint64, data []byte) []byte {
		if chunk == 1 {
			return data[:len(data)-5] // bites off the tail of chunk 1
		}
		return data
	})
	m := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message {
		if to == 0 {
			return truncating(msg)
		}
		return honest(msg)
	})
	data, err := m.fetchSnapshot(snapOffer(state, cb), []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("fetch with honest fallback failed: %v", err)
	}
	if types.Hash(data) != types.Hash(state) {
		t.Fatal("fetched state differs")
	}
	st := m.Stats()
	if st.ChunksRefused == 0 || st.SourceRotates == 0 {
		t.Fatalf("truncated chunk was not refused: %+v", st)
	}

	// With ONLY the truncating source, the fetch must fail outright.
	m2 := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message { return truncating(msg) })
	if _, err := m2.fetchSnapshot(snapOffer(state, cb), []types.ReplicaID{0}); err == nil {
		t.Fatal("truncated-only source produced a snapshot")
	}
}

func TestFetchSnapshotRefusesBitFlippedChunk(t *testing.T) {
	state := make([]byte, 3000)
	for i := range state {
		state[i] = byte(i)
	}
	const cb = 1024
	flipping := snapServer(0, state, cb, func(chunk uint64, data []byte) []byte {
		if chunk == 2 {
			data[3] ^= 0x40 // right size, silently corrupt
		}
		return data
	})
	m := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message { return flipping(msg) })
	if _, err := m.fetchSnapshot(snapOffer(state, cb), []types.ReplicaID{0}); err == nil {
		t.Fatal("bit-flipped snapshot passed the attested digest")
	}
	if st := m.Stats(); st.ChunksRefused == 0 {
		t.Fatalf("digest mismatch not counted: %+v", st)
	}
}

func TestFetchRangeRefusesWrongHeightAndForgedChains(t *testing.T) {
	honestChain := mkChain(10, 1)
	forgedChain := mkChain(10, 2) // same heights, different history
	head := honestChain.Get(9).Hash()

	rangeServer := func(self types.ReplicaID, lg *ledger.Ledger, shift uint64) func(m types.Message) types.Message {
		return func(m types.Message) types.Message {
			req, ok := m.(*types.BlockRangeRequest)
			if !ok {
				return nil
			}
			from := req.From + shift // a wrong-height server answers off by `shift`
			if from >= lg.Height() {
				return nil
			}
			to := min(req.To+shift, lg.Height())
			return &types.BlockRange{Replica: self, From: req.From, Blocks: encodeRange(lg, from, to)}
		}
	}

	// Wrong-height server (serves heights shifted by 2 under the requested
	// labels) is refused by the chain-link check; honest server completes.
	m := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message {
		if to == 0 {
			return rangeServer(0, honestChain, 2)(msg)
		}
		return rangeServer(1, honestChain, 0)(msg)
	})
	blocks, err := m.fetchRange(4, 10, honestChain.Get(3).Hash(), head, []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("fetch with honest fallback failed: %v", err)
	}
	if len(blocks) != 6 || blocks[5].Hash() != head {
		t.Fatal("fetched range wrong")
	}
	if st := m.Stats(); st.RangesRefused == 0 {
		t.Fatalf("wrong-height range not refused: %+v", st)
	}

	// A consistent forgery (a whole substitute chain) survives the
	// internal link check but cannot reach the attested head hash.
	m2 := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message {
		return rangeServer(0, forgedChain, 0)(msg)
	})
	if _, err := m2.fetchRange(0, 10, types.ZeroDigest, head, []types.ReplicaID{0}); err == nil {
		t.Fatal("forged chain accepted")
	}

	// A forged block in the middle of an honest prefix breaks the link.
	m3 := newFetcher(t, 1, func(to types.ReplicaID, msg types.Message) types.Message {
		req, ok := msg.(*types.BlockRangeRequest)
		if !ok {
			return nil
		}
		blocks := encodeRange(honestChain, req.From, min(req.To, honestChain.Height()))
		if req.From <= 5 && 5 < req.To {
			blocks[5-req.From] = ledger.EncodeBlock(forgedChain.Get(5))
		}
		return &types.BlockRange{Replica: 0, From: req.From, Blocks: blocks}
	})
	if _, err := m3.fetchRange(0, 10, types.ZeroDigest, head, []types.ReplicaID{0}); err == nil {
		t.Fatal("substituted block accepted")
	}
}

func TestProbeRequiresAttestation(t *testing.T) {
	state := []byte("app state")
	mkOffer := func(id types.ReplicaID, height uint64) *types.StateOffer {
		o := snapOffer(state, 1024)
		o.Replica = id
		o.Height = height
		o.HeadHash = types.Hash([]byte{byte(height)})
		o.SyncPoint = []byte{1}
		return o
	}
	// Disagreeing offers with Attest=2: no trustworthy target.
	m := newFetcher(t, 2, func(to types.ReplicaID, msg types.Message) types.Message {
		if req, ok := msg.(*types.SnapshotRequest); ok && req.IsProbe() {
			return mkOffer(to, uint64(10+to)) // every peer claims a different head
		}
		return nil
	})
	if _, _, info := m.probe(); info.attested || !info.sawHigher {
		t.Fatal("disagreeing offers produced an attested target")
	}
	// Two identical offers: attested.
	m2 := newFetcher(t, 2, func(to types.ReplicaID, msg types.Message) types.Message {
		if req, ok := msg.(*types.SnapshotRequest); ok && req.IsProbe() {
			if to == 2 {
				return mkOffer(to, 99) // lone dissenter
			}
			return mkOffer(to, 12)
		}
		return nil
	})
	target, sources, info2 := m2.probe()
	if !info2.attested {
		t.Fatal("identical offers did not attest")
	}
	if target.Height != 12 || len(sources) != 2 {
		t.Fatalf("attested target %d from %v, want 12 from 2 peers", target.Height, sources)
	}
}

func TestChunkCount(t *testing.T) {
	for _, tc := range []struct{ size, cb, want uint64 }{
		{0, 1024, 1}, {1, 1024, 1}, {1024, 1024, 1}, {1025, 1024, 2}, {4096, 1024, 4},
	} {
		if got := chunkCount(tc.size, tc.cb); got != tc.want {
			t.Fatalf("chunkCount(%d,%d) = %d, want %d", tc.size, tc.cb, got, tc.want)
		}
	}
}
