package pbft

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sm"
	"repro/internal/types"
)

// windowBackup is a backup instance with metrics, for driving one client's
// seq window through the instance's own entry points.
func windowBackup(t *testing.T) (*Instance, *obs.NodeMetrics) {
	t.Helper()
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, 0)
	p := New(Config{Primary: 0, FixedPrimary: true, Window: 8, BatchSize: 4, Metrics: met})
	p.Start(newRecEnv(1))
	return p, met
}

// send hands the backup client 1's seqs in one request and returns how many
// it accepted.
func send(p *Instance, met *obs.NodeMetrics, seqs ...uint64) int {
	txns := make([]types.Transaction, len(seqs))
	for i, s := range seqs {
		txns[i] = types.Transaction{Client: 1, Seq: s, Op: []byte{1}}
	}
	before := met.Requests.Value()
	p.OnMessage(sm.FromClient(1), types.NewClientRequest(0, txns...))
	return int(met.Requests.Value() - before)
}

// liveSeqs counts client 1's live seqs.
func liveSeqs(p *Instance) int {
	if cs := p.clients[1]; cs != nil {
		return cs.live.n
	}
	return 0
}

// TestSeqWindowSlidesOnFloorJumps: a floor that jumps past the window,
// pushed down by MergeDeliveredSeqs or installed with a sync point, drops
// the live seqs below it; seqs above it are kept, and a seq at or below it
// is refused as executed.
func TestSeqWindowSlidesOnFloorJumps(t *testing.T) {
	for _, jump := range []struct {
		name  string
		raise func(p *Instance, floor uint64) error
	}{
		{"MergeDeliveredSeqs", func(p *Instance, floor uint64) error {
			p.MergeDeliveredSeqs(map[types.ClientID]uint64{1: floor})
			return nil
		}},
		{"InstallSyncPoint", func(p *Instance, floor uint64) error {
			return p.InstallSyncPoint(syncPointBlob(1, map[types.ClientID]uint64{1: floor}))
		}},
	} {
		t.Run(jump.name, func(t *testing.T) {
			p, met := windowBackup(t)
			if got := send(p, met, 1, 2, 3, 70, 200, 201); got != 6 {
				t.Fatalf("accepted %d of 6 fresh seqs", got)
			}
			if err := jump.raise(p, 130); err != nil {
				t.Fatal(err)
			}
			if got := liveSeqs(p); got != 2 {
				t.Fatalf("%d live seqs after the floor reached 130, want 2 (200, 201)", got)
			}
			for s, live := range map[uint64]bool{3: false, 70: false, 200: true, 201: true} {
				if p.clients[1].isLive(s) != live {
					t.Fatalf("seq %d live = %v, want %v", s, !live, live)
				}
			}
			if got := send(p, met, 70, 130, 131, 200); got != 1 {
				t.Fatalf("accepted %d of (70, 130, 131, 200), want only 131", got)
			}
			// A jump past every live seq empties the window.
			if err := jump.raise(p, 1<<40); err != nil {
				t.Fatal(err)
			}
			if got := liveSeqs(p); got != 0 || p.clients[1].live.span != 0 {
				t.Fatalf("%d live seqs over %d words after the floor passed them all", got, p.clients[1].live.span)
			}
			if got := send(p, met, 1<<40, 1<<40+1); got != 1 {
				t.Fatalf("accepted %d of (floor, floor+1), want 1", got)
			}
		})
	}
}

// TestSeqWindowRefusesFarSeqs: while a client has a live seq, a seq that
// would widen its window past 2^14 words of 64 seqs (2^20 seqs) is refused
// and counted, upward and downward; a seq that widens it to exactly 2^14
// words is accepted.
func TestSeqWindowRefusesFarSeqs(t *testing.T) {
	const far = 1 << 20 // seq far+64 lies in word 2^14+1
	up, upMet := windowBackup(t)
	if send(up, upMet, far+64) != 1 || send(up, upMet, 2*far+64) != 0 || send(up, upMet, 2*far) != 1 {
		t.Fatal("upward: want word 2^15+1 refused and word 2^15 accepted above word 2^14+1")
	}
	if send(up, upMet, 64) != 0 {
		t.Fatal("a seq far below a window that reaches word 2^15 accepted")
	}
	down, downMet := windowBackup(t)
	if send(down, downMet, far+64) != 1 || send(down, downMet, 64) != 0 || send(down, downMet, 128) != 1 {
		t.Fatal("downward: want word 1 refused and word 2 accepted below word 2^14+1")
	}
	if upMet.SeqRefused.Value() != 2 || downMet.SeqRefused.Value() != 1 {
		t.Fatalf("counted %d and %d refusals, want 2 and 1", upMet.SeqRefused.Value(), downMet.SeqRefused.Value())
	}
	if liveSeqs(up) != 2 || liveSeqs(down) != 2 {
		t.Fatalf("%d and %d live seqs, want 2 each", liveSeqs(up), liveSeqs(down))
	}
}

// TestSeqWindowReanchors: a client whose live seqs all executed starts a
// fresh window at its next seq, however far that lies — a client that
// moved to another instance and came back is never refused.
func TestSeqWindowReanchors(t *testing.T) {
	p, met := windowBackup(t)
	b := &types.Batch{}
	for s := uint64(1); s <= 4; s++ {
		b.Txns = append(b.Txns, types.Transaction{Client: 1, Seq: s, Op: []byte{1}})
	}
	if send(p, met, 1, 2, 3, 4) != 4 {
		t.Fatal("fresh seqs refused")
	}
	p.AdoptDecision(sm.Decision{Round: 1, Digest: b.Digest(), Batch: b})
	if got := liveSeqs(p); got != 0 {
		t.Fatalf("%d live seqs after delivery", got)
	}
	if got := send(p, met, 5<<30, 5<<30+1); got != 2 {
		t.Fatalf("accepted %d of 2 seqs 2^32 past the floor", got)
	}
	if send(p, met, 7<<40) != 0 || met.SeqRefused.Value() != 1 {
		t.Fatal("a seq far from live ones accepted")
	}
}

// TestSeqWindowGrowsBothWays: a window that outgrows its ring upward and
// downward keeps every bit where it was.
func TestSeqWindowGrowsBothWays(t *testing.T) {
	var x seqWindow
	seqs := []uint64{1000, 1001, 5000, 500, 64 * 3000, 7, 64*3000 + 63}
	for _, s := range seqs {
		if !x.add(s) {
			t.Fatalf("seq %d refused", s)
		}
	}
	for _, s := range seqs {
		if !x.has(s) {
			t.Fatalf("seq %d lost", s)
		}
	}
	if x.has(8) || x.has(64*3000+62) || x.n != len(seqs) {
		t.Fatalf("window holds %d seqs, want exactly %v", x.n, seqs)
	}
	x.slide(1000)
	if x.n != 4 || x.has(1000) || !x.has(1001) || x.base != 1001>>6 {
		t.Fatalf("after slide to 1000: %d seqs, base word %d", x.n, x.base)
	}
}
