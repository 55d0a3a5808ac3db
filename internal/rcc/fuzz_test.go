package rcc

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/types"
)

// fuzzConfig is the deployment FuzzValidateSyncPoint's seeds come from and
// its fresh replicas run.
var fuzzConfig = Config{BatchSize: 1, Window: 4, sigma: 2}

// FuzzValidateSyncPoint feeds hostile bytes to the sync-point parser a
// state transfer runs on a frontier received from peers. No input may
// panic; ValidateSyncPoint's allocation stays linear in the input, so a
// count the remaining bytes cannot hold is refused before it is allocated;
// and where ValidateSyncPoint accepts, InstallSyncPoint on a fresh replica
// of the same deployment returns nil too (sm.StateSyncable: an install
// cannot fail halfway) and leaves every client assigned to an instance the
// deployment runs. An accepted input also round-trips through the one
// writer: parsed, written and parsed again, it gives an equal frontier.
// Seeds: the SyncPoint and BoundarySyncPoint of a short simnet run,
// mid-reassignment and after it, each with every truncation, and the
// richest one with a u32 of all ones at every offset.
//
//	go test -run '^$' -fuzz FuzzValidateSyncPoint -fuzztime 20s ./internal/rcc
func FuzzValidateSyncPoint(f *testing.F) {
	seeds := syncPointSeeds(f)
	for _, sp := range seeds {
		for i := 0; i <= len(sp); i++ {
			f.Add(sp[:i])
		}
	}
	richest := seeds[0]
	for _, sp := range seeds {
		if len(sp) > len(richest) {
			richest = sp
		}
	}
	for i := 0; i+4 <= len(richest); i++ {
		forged := append([]byte(nil), richest...)
		copy(forged[i:], []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(forged)
	}
	_, probe := cluster(f, 4, fuzzConfig, simnet.Config{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var err error
		if got, limit := allocatedBy(func() { err = probe[0].ValidateSyncPoint(b) }), allocLimit(len(b)); got > limit {
			t.Fatalf("ValidateSyncPoint allocated %d bytes for a %d-byte input (limit %d)", got, len(b), limit)
		}
		if err != nil {
			return
		}
		sp, err := parseRCCSyncPoint(b, probe[0].M())
		if err != nil {
			t.Fatalf("sync point passed ValidateSyncPoint but does not parse: %v", err)
		}
		again, err := parseRCCSyncPoint(sp.marshal(), probe[0].M())
		if err != nil {
			t.Fatalf("rewritten sync point does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("rewritten sync point parses to %+v, want %+v", again, sp)
		}
		_, fresh := cluster(t, 4, fuzzConfig, simnet.Config{})
		r := fresh[0]
		if err := r.InstallSyncPoint(b); err != nil {
			t.Fatalf("sync point passed ValidateSyncPoint but InstallSyncPoint refused it: %v", err)
		}
		// Client requests route by these; an instance past the deployment's
		// would panic the first request of that client.
		for c, inst := range r.assign {
			if int(inst) >= r.M() {
				t.Fatalf("installed assignment of client %d to instance %d of %d", c, inst, r.M())
			}
		}
		for c, s := range r.switches {
			if int(s.from) >= r.M() || int(s.to) >= r.M() {
				t.Fatalf("installed move of client %d from instance %d to %d of %d", c, s.from, s.to, r.M())
			}
		}
	})
}

// syncPointSeeds runs a four-replica deployment in which client 1 moves
// from instance 1 to instance 2 while clients 2-4 keep every instance busy,
// and returns SyncPoint and BoundarySyncPoint of replica 0 while the move is
// scheduled and after it completed.
func syncPointSeeds(tb testing.TB) [][]byte {
	const n = 4
	net, reps := cluster(tb, n, fuzzConfig, simnet.Config{})
	for s := uint64(1); s <= 3; s++ {
		for c := types.ClientID(1); c <= 4; c++ {
			inject(net, n, mkTx(c, s))
		}
		net.Run(net.Now() + 100*time.Millisecond)
	}
	sw := &types.SwitchInstance{Header: types.Header{Inst: 1}, Client: 1, To: 2}
	for i := 0; i < n; i++ {
		reps[i].OnMessage(sm.FromClient(1), sw)
	}
	net.Run(net.Now() + 50*time.Millisecond)
	if len(reps[0].switches) == 0 {
		tb.Fatal("no reassignment scheduled")
	}
	seeds := [][]byte{reps[0].SyncPoint(), reps[0].BoundarySyncPoint()}
	for s := uint64(4); s <= 12; s++ {
		for c := types.ClientID(2); c <= 4; c++ {
			inject(net, n, mkTx(c, s))
		}
		net.Run(net.Now() + 100*time.Millisecond)
	}
	inject(net, n, mkTx(1, 4))
	net.Run(net.Now() + 200*time.Millisecond)
	if len(reps[0].assign) == 0 {
		tb.Fatal("reassignment never completed")
	}
	seeds = append(seeds, reps[0].SyncPoint(), reps[0].BoundarySyncPoint())
	for i, sp := range seeds {
		if sp == nil {
			tb.Fatalf("seed %d is nil", i)
		}
	}
	return seeds
}

// allocatedBy returns the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocLimit bounds what parsing an n-byte sync point may allocate: every
// decoded record costs a small multiple of its encoding, and a count is
// checked against the bytes left before anything is sized by it.
func allocLimit(n int) uint64 { return 32*uint64(n) + 64<<10 }
