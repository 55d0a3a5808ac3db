package statesync

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/flight"
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
func newFetcher(t *testing.T, respond func(to types.ReplicaID, m types.Message) types.Message) *Manager {
	t.Helper()
	var m *Manager
	m = New(Config{
		Self: 3, N: 4,
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
	m := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message {
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
	m2 := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message { return truncating(msg) })
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
	m := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message { return flipping(msg) })
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
	m := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message {
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
	m2 := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message {
		return rangeServer(0, forgedChain, 0)(msg)
	})
	if _, err := m2.fetchRange(0, 10, types.ZeroDigest, head, []types.ReplicaID{0}); err == nil {
		t.Fatal("forged chain accepted")
	}

	// A forged block in the middle of an honest prefix breaks the link.
	m3 := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message {
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

// probeWith runs one probe on a fetcher at N = 4 (f+1 = 2) whose peers
// answer with offer(peer), nil for silence.
func probeWith(t *testing.T, offer func(types.ReplicaID) *types.StateOffer) (*Manager, *types.StateOffer, []types.ReplicaID, probeInfo) {
	t.Helper()
	m := newFetcher(t, func(to types.ReplicaID, msg types.Message) types.Message {
		if req, ok := msg.(*types.SnapshotRequest); ok && req.IsProbe() {
			if o := offer(to); o != nil {
				return o
			}
		}
		return nil
	})
	target, sources, info := m.probe()
	return m, target, sources, info
}

// liveOffer is an offer of peer id with a snapshot at height 8 (boundary
// frontier {8}) and a live head at height.
func liveOffer(id types.ReplicaID, height uint64) *types.StateOffer {
	o := snapOffer([]byte("app state"), 1024)
	o.Replica = id
	o.SnapHeadHash = types.Hash([]byte("block 7"))
	o.SnapSyncPoint = []byte{8}
	o.Height = height
	o.HeadHash = types.Hash([]byte{byte(height)})
	o.SyncPoint = []byte{byte(height)}
	return o
}

func TestProbeRequiresAttestation(t *testing.T) {
	// Every peer claims a different head and no checkpoint: no target.
	_, _, _, info := probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		o := liveOffer(id, uint64(10+id))
		o.SnapHeight, o.SnapSyncPoint = 0, nil
		return o
	})
	if info.attested || !info.sawHigher {
		t.Fatal("disagreeing offers produced an attested target")
	}

	// Two identical offers: their live head is the target.
	_, target, sources, info := probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		if id == 2 {
			return liveOffer(id, 99) // lone dissenter
		}
		return liveOffer(id, 12)
	})
	if !info.attested || target.Height != 12 || len(sources) != 2 {
		t.Fatalf("target %v from %v, want head 12 from 2 peers", target, sources)
	}

	// Two identical checkpoints whose live heads disagree, the load case:
	// the target is the checkpoint, with its boundary frontier.
	m, target, sources, info := probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		return liveOffer(id, uint64(10+id))
	})
	if !info.attested || len(sources) != 3 {
		t.Fatalf("no checkpoint target from three identical checkpoints (sources %v)", sources)
	}
	if target.Height != 8 || target.HeadHash != target.SnapHeadHash || string(target.SyncPoint) != "\x08" {
		t.Fatalf("checkpoint target reaches height %d with frontier %v, want 8 with the boundary frontier", target.Height, target.SyncPoint)
	}
	if st := m.Stats(); st.CkptTargets != 1 {
		t.Fatalf("checkpoint target not counted: %+v", st)
	}

	// A lone checkpoint offer is no target.
	_, _, _, info = probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		if id != 0 {
			return nil
		}
		return liveOffer(id, 12)
	})
	if info.attested {
		t.Fatal("a single checkpoint offer produced a target")
	}
}

// TestProbeRefusesLyingCheckpointOffer: at N = 4 one replica serves a
// fabricated checkpoint (a higher snapshot no other replica holds) while the
// two honest ones agree on theirs and are under load, so their live heads
// differ. The fetcher must target the honest checkpoint, never fetch from
// the liar, and count its offer under RejectNoQuorum.
func TestProbeRefusesLyingCheckpointOffer(t *testing.T) {
	lie := func() *types.StateOffer {
		o := liveOffer(0, 60)
		o.SnapHeight = 50
		o.SnapAppHash = types.Hash([]byte("fabricated state"))
		o.SnapHeadHash = types.Hash([]byte("fabricated block 49"))
		o.SnapSyncPoint = []byte{50}
		return o
	}
	m, target, sources, info := probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		if id == 0 {
			return lie()
		}
		return liveOffer(id, uint64(20+id))
	})
	if !info.attested || target.SnapHeight != 8 || !slices.Equal(sources, []types.ReplicaID{1, 2}) {
		t.Fatalf("target snapshot %v from %v, want the honest checkpoint at 8 from [1 2]", target, sources)
	}
	if got := m.Stats().RejectCauses[flight.RejectNoQuorum]; got != 1 {
		t.Fatalf("RejectNoQuorum = %d, want 1 (the liar's offer)", got)
	}

	// The liar alone, or with honest peers that hold no checkpoint: no
	// target, and its offer is refused.
	m, _, _, info = probeWith(t, func(id types.ReplicaID) *types.StateOffer {
		if id == 0 {
			return lie()
		}
		o := liveOffer(id, uint64(20+id))
		o.SnapHeight, o.SnapSyncPoint = 0, nil
		return o
	})
	if info.attested {
		t.Fatal("the fabricated checkpoint became a target")
	}
	if m.Stats().RejectCauses[flight.RejectNoQuorum] == 0 {
		t.Fatal("the fabricated checkpoint was not counted under RejectNoQuorum")
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
