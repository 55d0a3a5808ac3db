package pbft

import (
	"testing"
	"time"

	"repro/internal/sm"
	"repro/internal/types"
)

var progressTimer = sm.TimerID{Kind: sm.TimerProgress}

// TestFarFuturePrePrepareStillSuspected: a lying primary's PRE-PREPARE for
// round deliver + 2^40 that never prepares is outstanding work. The backup
// keeps its progress timer armed across deliveries below it and suspects
// when the timer fires — and each check returns at once instead of walking
// the gap.
func TestFarFuturePrePrepareStillSuspected(t *testing.T) {
	env := newRecEnv(1)
	p := New(Config{Primary: 0, FixedPrimary: true, Window: 16})
	p.Start(env)
	b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 1, Op: []byte{1}}}}
	p.OnMessage(sm.FromReplica(0), &types.PrePrepare{Round: p.Delivered() + 1<<40, Digest: b.Digest(), Batch: b})
	if d, armed := env.timers[progressTimer]; !armed || d != p.Config().ProgressTimeout {
		t.Fatalf("progress timer %v (armed %v), want %v", d, armed, p.Config().ProgressTimeout)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := types.Round(1); r <= 3; r++ {
			adopt(p, r, byte(r)) // each delivery re-checks outstanding work
		}
		p.OnTimer(progressTimer)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("outstanding-work check walks the gap to the far-future round")
	}
	if p.Delivered() != 4 {
		t.Fatalf("delivered up to %d, want 3", p.Delivered()-1)
	}
	if len(env.suspects) != 1 || env.suspects[0] != 4 {
		t.Fatalf("suspected rounds %v, want [4]", env.suspects)
	}
}

// TestNoProgressTimerAfterLongDelivery: after 600 rounds delivered through
// PRE-PREPARE and COMMITs — more than retainDelivered keeps — with nothing
// pending, the backup has no progress timer armed. With the next round
// preprepared ahead of the one that commits, the timer stays armed.
func TestNoProgressTimerAfterLongDelivery(t *testing.T) {
	env := newRecEnv(1)
	p := New(Config{Primary: 0, FixedPrimary: true, Window: 16})
	p.Start(env)
	prePrepare := func(r types.Round) types.Digest {
		b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: uint64(r), Op: []byte{1}}}}
		d := b.Digest()
		p.OnMessage(sm.FromReplica(0), &types.PrePrepare{Round: r, Digest: d, Batch: b})
		return d
	}
	commit := func(r types.Round, d types.Digest) {
		for _, from := range []types.ReplicaID{0, 2, 3} {
			p.OnMessage(sm.FromReplica(from), types.NewCommit(0, from, 0, r, d))
		}
	}
	for r := types.Round(1); r <= 600; r++ {
		commit(r, prePrepare(r))
	}
	if p.Delivered() != 601 {
		t.Fatalf("delivered up to %d, want 600", p.Delivered()-1)
	}
	if len(p.rounds) <= int(p.Config().retainDelivered) {
		t.Fatalf("%d rounds retained, want more than retainDelivered (%d)", len(p.rounds), p.Config().retainDelivered)
	}
	if _, armed := env.timers[progressTimer]; armed {
		t.Fatal("progress timer armed with nothing outstanding")
	}
	d601 := prePrepare(601)
	prePrepare(602)
	commit(601, d601)
	if _, armed := env.timers[progressTimer]; !armed {
		t.Fatal("progress timer disarmed while round 602 waits to commit")
	}
}
