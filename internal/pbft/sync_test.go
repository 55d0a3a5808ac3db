package pbft

import (
	"encoding/hex"
	"testing"

	"repro/internal/simnet"
	"repro/internal/types"
)

// goldenFrontier sets a fresh instance's frontier by hand: view 3, delivery
// at round 9 with its chain value retained, stable checkpoint 8, delivered
// floors for clients 3 and 1, and client 4 with a floor merged from
// elsewhere, which no sync point carries.
func goldenFrontier(t *testing.T) *Instance {
	t.Helper()
	_, insts := cluster(t, 4, Config{BatchSize: 1, Window: 4}, simnet.Config{})
	p := insts[0]
	p.view, p.deliver, p.stableCkp = 3, 9, 8
	p.chain = types.Hash([]byte("chain at round 8"))
	p.chainAt[8] = p.chain
	p.client(nil, 3).lastSeq = 5
	p.client(nil, 1).lastSeq = 2
	p.MergeDeliveredSeqs(map[types.ClientID]uint64{4: 10})
	return p
}

// TestSyncPointGolden pins the sync-point format: both forms of a frontier
// built by hand serialize to fixed bytes, so a change to the writer cannot
// change what peers compare byte for byte without failing here.
func TestSyncPointGolden(t *testing.T) {
	p := goldenFrontier(t)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"live", p.SyncPoint(), "01000000000000000300000000000000090000000000000008cc05a977f2ed2002d45d70bd15eebe9e5e0543475d51b2830a8aeabfbc94c2bd00000002000000010000000000000002000000030000000000000005"},
		{"boundary", p.BoundarySyncPointAt(9), "01000000000000000000000000000000090000000000000000cc05a977f2ed2002d45d70bd15eebe9e5e0543475d51b2830a8aeabfbc94c2bd00000000"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s sync point:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
