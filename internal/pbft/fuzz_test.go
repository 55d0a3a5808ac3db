package pbft

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// fuzzConfig is the deployment FuzzValidateSyncPoint's seeds come from and
// its fresh replicas run.
var fuzzConfig = Config{BatchSize: 1, Window: 4}

// FuzzValidateSyncPoint feeds hostile bytes to the sync-point parser a
// state transfer runs on a frontier received from peers. No input may
// panic; ValidateSyncPoint's allocation stays linear in the input, so a
// dedup-map count the remaining bytes cannot hold is refused before it is
// allocated; and where ValidateSyncPoint accepts, InstallSyncPoint on a
// fresh replica of the same deployment returns nil too (sm.StateSyncable:
// an install cannot fail halfway). An accepted input also round-trips
// through the one writer: parsed, written and parsed again, it gives an
// equal frontier. Seeds: the SyncPoint and the BoundarySyncPointAt its
// delivered frontier of a short simnet run, each with every truncation and
// with a u32 of all ones at every offset.
//
//	go test -run '^$' -fuzz FuzzValidateSyncPoint -fuzztime 20s ./internal/pbft
func FuzzValidateSyncPoint(f *testing.F) {
	const n = 4
	net, insts := cluster(f, n, fuzzConfig, simnet.Config{})
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= 3; c++ {
			inject(net, n, mkTx(c, s))
		}
		net.Run(net.Now() + 100*time.Millisecond)
	}
	src := insts[0]
	if src.Delivered() < 2 {
		f.Fatalf("cluster delivered %d rounds", src.Delivered())
	}
	for _, sp := range [][]byte{src.SyncPoint(), src.BoundarySyncPointAt(src.Delivered())} {
		if sp == nil {
			f.Fatal("nil seed")
		}
		for i := 0; i <= len(sp); i++ {
			f.Add(sp[:i])
		}
		for i := 0; i+4 <= len(sp); i++ {
			forged := append([]byte(nil), sp...)
			copy(forged[i:], []byte{0xff, 0xff, 0xff, 0xff})
			f.Add(forged)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var err error
		if got, limit := allocatedBy(func() { err = src.ValidateSyncPoint(b) }), allocLimit(len(b)); got > limit {
			t.Fatalf("ValidateSyncPoint allocated %d bytes for a %d-byte input (limit %d)", got, len(b), limit)
		}
		if err != nil {
			return
		}
		sp, err := parseSyncPoint(b)
		if err != nil {
			t.Fatalf("sync point passed ValidateSyncPoint but does not parse: %v", err)
		}
		again, err := parseSyncPoint(sp.marshal())
		if err != nil {
			t.Fatalf("rewritten sync point does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("rewritten sync point parses to %+v, want %+v", again, sp)
		}
		_, fresh := cluster(t, n, fuzzConfig, simnet.Config{})
		if err := fresh[0].InstallSyncPoint(b); err != nil {
			t.Fatalf("sync point passed ValidateSyncPoint but InstallSyncPoint refused it: %v", err)
		}
	})
}

// allocatedBy returns the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocLimit bounds what parsing an n-byte sync point may allocate: the
// dedup map costs a small multiple of its encoding, and its count is
// checked against the bytes left before the map is sized by it.
func allocLimit(n int) uint64 { return 32*uint64(n) + 64<<10 }
